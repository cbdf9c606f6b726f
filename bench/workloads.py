"""The benchmark's four workloads: inputs, the timed call, and its check.

A workload is a list of tasks per pass.  ``make_pass(k)`` builds pass k's
tasks from the seed alone, so the inputs do not depend on how fast the
program runs.  ``Task.run`` is the timed call into the program;
``Workload.check`` verifies its output afterwards, untimed.

- figures: ``cdpulse figures N`` for N = 1..13 through ``cdpulse.cli.main``.
  Long trajectories and wide CSV rows: propagation and formatting.
- sweep: ``cdpulse sweep --resolution 200``.  The ratio-surface loop and
  many narrow CSV rows; never touches ``dynamics``.
- targets: random requests over all five protocols (and all five single-I
  branches) through the library API: design -> evolve(400) ->
  drive_metrics.  Many short integrations, no file output.
- costs: random nonnegative targets for the three phi-only protocols:
  design -> drive_metrics -> mode_comparison_ratio, the computation behind
  ``cdpulse metrics``.  Design synthesis and quadrature carry the time.

Task mixes are stratified (a fixed count per protocol and branch in every
pass), so the work per pass does not vary with the seed; only targets,
durations and winding rates do, and the program's cost does not depend on
them.
"""

from __future__ import annotations

import hashlib
import math
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from cdpulse import cli, dynamics, metrics, protocols
from cdpulse.protocols import Branch, Protocol, ProtocolRequest, TargetState

TARGET_STEPS = 400
SWEEP_RESOLUTION = 200
TARGETS_PER_PROTOCOL = 10  # per pass; 50 tasks
COSTS_PER_PROTOCOL = 100  # per pass; 300 tasks
COST_PROTOCOLS = (
    Protocol.SINGLE_MODE_II,
    Protocol.SINGLE_MODE_II_NO_MICROWAVE,
    Protocol.MULTI_MODE,
)
SINGLE_I_BRANCHES = tuple(Branch)


@dataclass
class Task:
    label: str
    run: Callable[[], object]
    request: object = None  # the input, for the check
    repeats: bool = False  # the same task recurs in every pass, keyed by label


@dataclass
class Outcome:
    """What a check found: accuracy figures and, for file tasks, the files."""

    global_error: float = 0.0
    infidelity: float = 0.0
    cost_error: float = 0.0
    rows: int = 0
    bytes: int = 0
    digests: dict | None = None


# ---------------------------------------------------------------- inputs

def _rng(seed: int, pass_index: int, name: str) -> random.Random:
    return random.Random(f"{name}:{seed}:{pass_index}")


def _duration(rng: random.Random) -> float:
    return 10.0 ** rng.uniform(-1.0, 1.0)  # log-uniform in [0.1, 10]


def _octant_target(rng: random.Random) -> TargetState:
    """Uniform on the nonnegative octant of the unit sphere."""
    v = [abs(rng.gauss(0.0, 1.0)) + 1e-3 for _ in range(3)]
    return TargetState.normalized(*v)


def _two_state_target(rng: random.Random) -> TargetState:
    a = rng.uniform(0.02, math.pi / 2.0 - 0.02)
    return TargetState.normalized(math.cos(a), 0.0, math.sin(a))


def target_requests(seed: int, pass_index: int) -> list[ProtocolRequest]:
    """Pass k of the targets workload: 10 requests per protocol, interleaved."""
    rng = _rng(seed, pass_index, "targets")
    out = []
    for i in range(TARGETS_PER_PROTOCOL):
        T = _duration(rng)
        out.append(ProtocolRequest(
            Protocol.SINGLE_MODE_I, _two_state_target(rng), tf=T,
            branch=SINGLE_I_BRANCHES[i % len(SINGLE_I_BRANCHES)]))
        for protocol in COST_PROTOCOLS:
            out.append(ProtocolRequest(protocol, _octant_target(rng), tf=_duration(rng)))
        T = _duration(rng)
        out.append(ProtocolRequest(
            Protocol.PHASED, _two_state_target(rng), tf=T,
            lambda_rate=rng.uniform(-2.0, 2.0) / T))
    return out


def cost_requests(seed: int, pass_index: int) -> list[ProtocolRequest]:
    """Pass k of the costs workload: 100 requests per phi-only protocol."""
    rng = _rng(seed, pass_index, "costs")
    return [
        ProtocolRequest(protocol, _octant_target(rng), tf=_duration(rng))
        for _ in range(COSTS_PER_PROTOCOL)
        for protocol in COST_PROTOCOLS
    ]


# ------------------------------------------------------------- workloads
# Tasks call the program through module attributes (protocols.design, ...)
# at call time, so the traced run's wrappers see them.

def _target_task(request):
    dsg = protocols.design(request)
    traj = dynamics.evolve(dsg.hamiltonian, dsg.initial_state, request.t0,
                           request.tf, steps=TARGET_STEPS)
    return dsg, traj, metrics.drive_metrics(dsg.pulses)


def _cost_task(request):
    dsg = protocols.design(request)
    dm = metrics.drive_metrics(dsg.pulses)
    t = request.target
    return dm, metrics.mode_comparison_ratio(t.mu, t.eta, t.nu)


class TargetsWorkload:
    name = "targets"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def make_pass(self, k: int) -> list[Task]:
        return [
            Task(f"{r.protocol.value}", (lambda r=r: _target_task(r)), r)
            for r in target_requests(self.seed, k)
        ]

    def check(self, task: Task, output) -> Outcome:
        dsg, traj, dm = output
        _, global_error, infidelity = oracle.check_trajectory(
            dsg, traj.times, traj.states,
            oracle.TARGETS_GLOBAL_ERROR_TOL, oracle.TARGETS_INFIDELITY_TOL)
        cost_error = oracle.check_costs(task.request, dm)
        return Outcome(global_error, infidelity, cost_error)

    def close(self) -> None:
        pass


class CostsWorkload(TargetsWorkload):
    name = "costs"

    def make_pass(self, k: int) -> list[Task]:
        return [
            Task(f"{r.protocol.value}", (lambda r=r: _cost_task(r)), r)
            for r in cost_requests(self.seed, k)
        ]

    def check(self, task: Task, output) -> Outcome:
        dm, ratio = output
        t = task.request.target
        oracle.check_ratio(t.mu, t.eta, t.nu, ratio)
        return Outcome(cost_error=oracle.check_costs(task.request, dm))


# The benchmark's own table of what each figure writes:
# figure -> [(file stem, kind, request)].
_SQ2, _SQ3, _SQ6 = 1 / math.sqrt(2.0), 1 / math.sqrt(3.0), 1 / math.sqrt(6.0)


def _req(protocol, mu, eta, nu, **kw):
    return ProtocolRequest(protocol, TargetState.normalized(mu, eta, nu), **kw)


def figure_table() -> dict[int, list]:
    I, II = Protocol.SINGLE_MODE_I, Protocol.SINGLE_MODE_II
    NOMW, MULTI = Protocol.SINGLE_MODE_II_NO_MICROWAVE, Protocol.MULTI_MODE
    return {
        1: [("fig1a_pulses", "pulses", _req(I, _SQ2, 0, _SQ2)),
            ("fig1b_populations", "traj", _req(I, _SQ2, 0, _SQ2))],
        2: [(f"fig2_populations_T{tag}", "traj", _req(I, 0, 0, 1, tf=T))
            for T, tag in [(0.1, "0.1"), (1.0, "1"), (10.0, "10")]],
        3: [(f"fig3{tag}_fidelities", "traj", _req(I, _SQ2, 0, _SQ2, branch=b))
            for tag, b in [("a", Branch.ARCSIN_PLUS), ("b", Branch.ARCCOS_MINUS),
                           ("c", Branch.ARCCOS_PLUS), ("d", Branch.ARCSIN_MINUS)]],
        4: [("fig4a_pulses", "pulses", _req(II, 0, _SQ2, _SQ2)),
            ("fig4b_pulses", "pulses", _req(II, _SQ3, _SQ3, _SQ3))],
        5: [("fig5a_populations", "traj", _req(II, 0, _SQ2, _SQ2)),
            ("fig5b_populations", "traj", _req(II, _SQ3, _SQ3, _SQ3))],
        6: [("fig6a_pulses", "pulses", _req(NOMW, _SQ2, 0, _SQ2)),
            ("fig6b_pulses", "pulses", _req(NOMW, _SQ6, _SQ3, _SQ2))],
        7: [("fig7a_populations", "traj", _req(NOMW, _SQ2, 0, _SQ2)),
            ("fig7b_populations", "traj", _req(NOMW, _SQ6, _SQ3, _SQ2))],
        8: [("fig8a_pulses", "pulses", _req(MULTI, _SQ3, _SQ3, _SQ3)),
            ("fig8b_populations", "traj", _req(MULTI, _SQ3, _SQ3, _SQ3))],
        9: [(f"fig9{tag}_populations", "traj", _req(MULTI, mu, eta, nu))
            for tag, mu, eta, nu in [("a", 0, 0, 1), ("b", 0, _SQ2, _SQ2),
                                     ("c", _SQ2, 0.5, 0.5), ("d", _SQ2, 0, _SQ2)]],
        10: [("fig10_ratio_surface", "surface", 50)],
        11: [("fig11_bloch", "traj", _req(Protocol.PHASED, _SQ2, 0, _SQ2))],
        12: [("fig12_angles", "traj", _req(Protocol.PHASED, _SQ2, 0, _SQ2))],
        # the cavity Hamiltonian equals the Lambda one of the cavity-bell design
        13: [("fig13_populations", "traj",
              ProtocolRequest(MULTI, TargetState(_SQ2, 0.0, _SQ2), initial_state=1))],
    }


FIGURE_STEPS = 4000  # the CLI default the figures run at


def _read_csv(path: Path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


class CliWorkload:
    """Shared by figures and sweep: CLI commands writing into fresh directories.

    The first time a command runs, its files are checked against the oracle
    and their sha256 digests stored; every later run of the same command
    must reproduce those digests byte for byte.
    """

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.digests: dict[str, dict[str, str]] = {}

    def _task(self, label: str, argv: list[str], spec) -> Task:
        out = tempfile.mkdtemp(prefix=label + "-", dir=self.workdir)

        def run():
            code = cli.main(argv + ["--out", out])
            if code != cli.EXIT_OK:
                raise RuntimeError(f"cdpulse {' '.join(argv)} exited {code}")
            return Path(out)

        return Task(label, run, spec, repeats=True)

    def check(self, task: Task, out: Path) -> Outcome:
        try:
            files = sorted(out.iterdir())
            digests, rows, size = {}, 0, 0
            for path in files:
                blob = path.read_bytes()
                digests[path.name] = hashlib.sha256(blob).hexdigest()
                rows += blob.count(b"\n") - 1
                size += len(blob)
            outcome = Outcome(rows=rows, bytes=size, digests=digests)
            known = self.digests.get(task.label)
            if known is None:
                self._verify(task.request, out, outcome)
                self.digests[task.label] = digests
            else:
                oracle.require(digests == known,
                               f"{task.label}: output differs from the first run")
            return outcome
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class FiguresWorkload(CliWorkload):
    name = "figures"

    def make_pass(self, k: int) -> list[Task]:
        table = figure_table()
        return [self._task(f"fig{n}", ["figures", str(n)], table[n]) for n in table]

    def _verify(self, entries, out: Path, outcome: Outcome) -> None:
        expected = sorted(f"{stem}.csv" for stem, _, _ in entries)
        found = sorted(p.name for p in out.iterdir())
        oracle.require(found == expected, f"files {found}, expected {expected}")
        for stem, kind, request in entries:
            header, data = _read_csv(out / f"{stem}.csv")
            if kind == "surface":
                oracle.check_surface(data, request)
                continue
            oracle.require(data.shape[0] == FIGURE_STEPS + 1,
                           f"{stem}: {data.shape[0]} rows, expected {FIGURE_STEPS + 1}")
            dsg = oracle.design(request)
            if kind == "pulses":
                oracle.check_pulses(dsg, data)
                continue
            g, f = oracle.check_trajectory_file(dsg, header, data, request.t0,
                                                request.tf)
            outcome.global_error = max(outcome.global_error, g)
            outcome.infidelity = max(outcome.infidelity, f)


class SweepWorkload(CliWorkload):
    name = "sweep"

    def make_pass(self, k: int) -> list[Task]:
        argv = ["sweep", "--resolution", str(SWEEP_RESOLUTION)]
        return [self._task("sweep", argv, SWEEP_RESOLUTION)]

    def _verify(self, resolution, out: Path, outcome: Outcome) -> None:
        files = sorted(p.name for p in out.iterdir())
        oracle.require(files == ["ratio_surface.csv"], f"files {files}")
        _, data = _read_csv(out / "ratio_surface.csv")
        oracle.check_surface(data, resolution)


WORKLOADS = {
    w.name: w for w in (FiguresWorkload, SweepWorkload, TargetsWorkload, CostsWorkload)
}
