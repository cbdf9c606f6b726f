"""Call tracing for the benchmark's traced run.

Wrappers go on the public names the program calls through, only while a
traced pass runs, and ``uninstall`` puts the original objects back.  Coarse
calls (a CLI command, ``design``, ``evolve``, ``drive_metrics``, ...) are
recorded as spans with name, start, end, parent and task id.  Calls made
thousands of times per task (Hamiltonian evaluations, basis vectors, cubic
evaluations) are only aggregated into per-name counters, so the span list
stays small.  Self time is a call's duration minus the duration of the
timed calls made inside it.
"""

from __future__ import annotations

import time
from collections import defaultdict

from cdpulse import basis, cli, dynamics, metrics, protocols, schedules

_clock = time.perf_counter_ns


def patch_points():
    """(owner, attribute) pairs the tracer replaces, with their originals."""
    names = [
        (cli, "main"),
        (cli, "build_parser"),
        (cli, "design"),
        (cli, "evolve"),
        (cli, "extract_theta_kappa"),
        (cli, "bloch_coordinates"),
        (protocols, "design"),
        (dynamics, "evolve"),
        (dynamics.Trajectory, "populations"),
        (dynamics.Trajectory, "norms"),
        (dynamics.Trajectory, "fidelity_to"),
        (metrics, "drive_metrics"),
        (metrics, "ratio_surface"),
        (metrics, "mode_comparison_ratio"),
        (basis.MovingBasis, "vectors"),
        (basis.MovingBasis, "vector_derivatives"),
        (schedules.CubicPolynomial, "__call__"),
        (schedules.CubicPolynomial, "derivative"),
    ]
    return [(owner, attr, owner.__dict__[attr]) for owner, attr in names]


# Captured at import, before any tracer can have replaced them.
ORIGINALS = patch_points()


def installed() -> bool:
    """True while any traced name differs from the original object."""
    return any(owner.__dict__[attr] is not orig for owner, attr, orig in ORIGINALS)


class Tracer:
    """Spans and per-name counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, task]
        self.task = None
        self._frames: list[list[int]] = []  # child ns of each open timed call
        self._open: list[int] = []  # span indices of open recorded calls
        self.reset()

    def reset(self) -> None:
        """Start new counters (spans are kept for the whole run)."""
        self.stats = defaultdict(lambda: [0, 0, 0])  # calls, self_ns, total_ns
        self.extra = defaultdict(int)

    def take(self) -> tuple[dict, dict]:
        stats, extra = dict(self.stats), dict(self.extra)
        self.reset()
        return stats, extra

    def timed(self, name: str, fn, record: bool = True):
        frames, opened, spans = self._frames, self._open, self.spans

        def wrapper(*args, **kwargs):
            frame = [0]
            frames.append(frame)
            if record:
                index = len(spans)
                spans.append([name, 0, 0, opened[-1] if opened else None, self.task])
                opened.append(index)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                frames.pop()
                duration = end - start
                if frames:
                    frames[-1][0] += duration
                entry = self.stats[name]
                entry[0] += 1
                entry[1] += duration - frame[0]
                entry[2] += duration
                if record:
                    opened.pop()
                    spans[index][1] = start
                    spans[index][2] = end

        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.stats[name][0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replacements(self) -> dict:
        orig = {(owner, attr): fn for owner, attr, fn in ORIGINALS}
        timed, counted = self.timed, self.counted

        def evolve_counting(spec, *args, **kwargs):
            # Hand evolve a spec whose evaluator is timed and counted.
            spec = dynamics.HamiltonianSpec(
                spec.dimension,
                timed("dynamics.hamiltonian", spec.evaluator, record=False),
                spec.source,
            )
            traj = orig[dynamics, "evolve"](spec, *args, **kwargs)
            self.extra["dynamics.evolve.steps"] += len(traj.times) - 1
            return traj

        def ratio_surface_counting(*args, **kwargs):
            surface = orig[metrics, "ratio_surface"](*args, **kwargs)
            self.extra["metrics.ratio_surface.points"] += surface.omega_ratio.size
            return surface

        def observable(prop):
            return property(timed("dynamics.observables", prop.fget))

        design = timed("protocols.design", orig[protocols, "design"])
        evolve = timed("dynamics.evolve", evolve_counting)
        return {
            (cli, "main"): timed("cli.command", orig[cli, "main"]),
            (cli, "build_parser"): timed("cli.parse", orig[cli, "build_parser"]),
            (cli, "design"): design,
            (cli, "evolve"): evolve,
            (cli, "extract_theta_kappa"): timed(
                "dynamics.observables", orig[cli, "extract_theta_kappa"]),
            (cli, "bloch_coordinates"): timed(
                "dynamics.observables", orig[cli, "bloch_coordinates"]),
            (protocols, "design"): design,
            (dynamics, "evolve"): evolve,
            (dynamics.Trajectory, "populations"): observable(
                orig[dynamics.Trajectory, "populations"]),
            (dynamics.Trajectory, "norms"): observable(
                orig[dynamics.Trajectory, "norms"]),
            (dynamics.Trajectory, "fidelity_to"): timed(
                "dynamics.observables", orig[dynamics.Trajectory, "fidelity_to"]),
            (metrics, "drive_metrics"): timed(
                "metrics.drive_metrics", orig[metrics, "drive_metrics"]),
            (metrics, "ratio_surface"): timed(
                "metrics.ratio_surface", ratio_surface_counting),
            (metrics, "mode_comparison_ratio"): counted(
                "metrics.mode_comparison_ratio", orig[metrics, "mode_comparison_ratio"]),
            (basis.MovingBasis, "vectors"): timed(
                "basis.vectors", orig[basis.MovingBasis, "vectors"], record=False),
            (basis.MovingBasis, "vector_derivatives"): timed(
                "basis.vector_derivatives",
                orig[basis.MovingBasis, "vector_derivatives"], record=False),
            (schedules.CubicPolynomial, "__call__"): counted(
                "schedules.cubic", orig[schedules.CubicPolynomial, "__call__"]),
            (schedules.CubicPolynomial, "derivative"): counted(
                "schedules.cubic", orig[schedules.CubicPolynomial, "derivative"]),
        }

    def install(self) -> None:
        for (owner, attr), fn in self._replacements().items():
            setattr(owner, attr, fn)

    def uninstall(self) -> None:
        for owner, attr, fn in ORIGINALS:
            setattr(owner, attr, fn)
