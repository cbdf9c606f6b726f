"""Tests of the benchmark itself: inputs, oracle, tracing hygiene.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cdpulse import cli, dynamics, metrics, protocols  # noqa: E402
from cdpulse.protocols import Protocol  # noqa: E402


@pytest.mark.parametrize("generate", [workloads.target_requests, workloads.cost_requests])
def test_generators_are_deterministic_per_seed(generate):
    assert generate(7, 3) == generate(7, 3)
    assert generate(7, 3) != generate(8, 3)
    assert generate(7, 3) != generate(7, 4)
    # stratified: the protocol mix is the same for every seed and pass
    mix = [(r.protocol, r.branch) for r in generate(7, 3)]
    assert mix == [(r.protocol, r.branch) for r in generate(11, 0)]


def test_targets_cover_every_protocol_and_branch():
    requests = workloads.target_requests(1, 0)
    assert {r.protocol for r in requests} == set(Protocol)
    single_i = {r.branch for r in requests if r.protocol is Protocol.SINGLE_MODE_I}
    assert single_i == set(workloads.SINGLE_I_BRANCHES)
    assert all(0.1 <= r.duration <= 10.0 for r in requests)


def _phased_output():
    request = next(r for r in workloads.target_requests(1, 0)
                   if r.protocol is Protocol.PHASED)
    return request, workloads._target_task(request)


def test_oracle_flags_norm_preserving_phase_error():
    request, (dsg, traj, dm) = _phased_output()
    _, error, infidelity = oracle.check_trajectory(
        dsg, traj.times, traj.states,
        oracle.TARGETS_GLOBAL_ERROR_TOL, oracle.TARGETS_INFIDELITY_TOL)
    assert error <= oracle.TARGETS_GLOBAL_ERROR_TOL
    # a slowly accumulating global phase: norms and populations are untouched
    phase = np.exp(1e-5j * (traj.times - traj.times[0]) / request.duration)
    bad = dynamics.Trajectory(traj.times, traj.states * phase[:, None])
    assert np.allclose(bad.norms, traj.norms, rtol=0, atol=1e-15)
    assert np.allclose(bad.populations, traj.populations, rtol=0, atol=1e-15)
    with pytest.raises(oracle.CheckFailed, match="global error"):
        oracle.check_trajectory(
            dsg, bad.times, bad.states,
            oracle.TARGETS_GLOBAL_ERROR_TOL, oracle.TARGETS_INFIDELITY_TOL)


class _PerturbedTargets(workloads.TargetsWorkload):
    """Every other task's trajectory gets a norm-preserving phase error."""

    def make_pass(self, k):
        tasks = super().make_pass(k)[:6]
        for task in tasks[::2]:
            task.run = self._perturb(task.run)
        return tasks

    @staticmethod
    def _perturb(call):
        def run():
            dsg, traj, dm = call()
            phase = np.exp(1e-5j * np.arange(len(traj.times)) / len(traj.times))
            return dsg, dynamics.Trajectory(traj.times, traj.states * phase[:, None]), dm
        return run


def test_perturbed_outputs_are_counted_as_failed(tmp_path):
    passes = run.run_passes(_PerturbedTargets(1, tmp_path), 0.0, 1)
    assert len(passes[0]["latencies_ns"]) == 6
    assert len(passes[0]["errors"]) == 3
    assert all("global error" in e for e in passes[0]["errors"])


def test_cost_oracle_flags_wrong_energy():
    request = workloads.cost_requests(1, 0)[0]
    dm, ratio = workloads._cost_task(request)
    oracle.check_costs(request, dm)
    oracle.check_ratio(request.target.mu, request.target.eta, request.target.nu, ratio)
    wrong = type(dm)(dm.omega_bar, dm.energy_bar * (1 + 1e-6), dm.T, dm.quad_error,
                     dm.peak)
    with pytest.raises(oracle.CheckFailed, match="energy_bar"):
        oracle.check_costs(request, wrong)


def test_ratio_oracle_allows_input_rounding_in_ill_conditioned_corner():
    # Near mu = 1 the program's renormalisation of the target (one ulp in mu)
    # moves the ratio by ~1e-9 relative; a real error there is still caught.
    mu, eta, nu = 0.9977061210699036, 0.04789578694591073, 0.04783816021209995
    omega_ratio, energy_ratio = metrics.mode_comparison_ratio(mu, eta, nu)
    assert abs(energy_ratio / oracle.expected_ratio(mu, eta, nu) ** 2 - 1) > oracle.COST_REL_TOL
    oracle.check_ratio(mu, eta, nu, (omega_ratio, energy_ratio))
    with pytest.raises(oracle.CheckFailed, match="energy ratio"):
        oracle.check_ratio(mu, eta, nu, (omega_ratio, energy_ratio * (1 + 1e-6)))


class _Figure10(workloads.FiguresWorkload):
    def make_pass(self, k):
        return [t for t in super().make_pass(k) if t.label == "fig10"]


def test_cli_outputs_are_checked_then_pinned_by_digest(tmp_path):
    workload = _Figure10(1, tmp_path / "work")
    first, second = run.run_passes(workload, 0.0, 2)
    assert not first["errors"] and not second["errors"]
    assert first["digests"] == second["digests"]
    assert first["rows"] == 2500
    # a changed byte in a later run no longer matches the first run's digest
    task = workload.make_pass(2)[0]
    out = task.run()
    path = out / "fig10_ratio_surface.csv"
    path.write_bytes(path.read_bytes().replace(b"0.", b"1.", 1))
    with pytest.raises(oracle.CheckFailed, match="differs from the first run"):
        workload.check(task, out)
    workload.close()


def test_tracing_is_removed_after_a_traced_run(tmp_path):
    originals = {(o, a): o.__dict__[a] for o, a, _ in tracing.ORIGINALS}
    tracer = tracing.Tracer()
    passes = run.run_passes(workloads.CostsWorkload(1, tmp_path), 0.0, 1, tracer=tracer)
    stats = passes[0]["stats"]
    assert stats["protocols.design"][0] == len(passes[0]["latencies_ns"])
    assert stats["metrics.drive_metrics"][0] == len(passes[0]["latencies_ns"])
    assert stats["schedules.cubic"][0] > 0
    assert not passes[0]["errors"]
    assert not tracing.installed()
    assert all(o.__dict__[a] is fn for (o, a), fn in originals.items())
    assert cli.design is protocols.design is originals[protocols, "design"]
    # an untraced pass refuses to time through leftover wrappers
    tracer.install()
    try:
        with pytest.raises(RuntimeError, match="installed"):
            run.run_passes(workloads.CostsWorkload(1, tmp_path), 0.0, 1)
    finally:
        tracer.uninstall()
    assert not run.run_passes(workloads.CostsWorkload(1, tmp_path), 0.0, 1)[0]["errors"]


def test_spans_nest_and_self_time_excludes_children():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(1000))

    inner = tracer.timed("inner", leaf, record=False)
    outer = tracer.timed("outer", lambda: [inner() for _ in range(3)])
    tracer.task = "t0"
    outer()
    stats, _ = tracer.take()
    assert stats["inner"][0] == 3
    assert stats["outer"][1] == stats["outer"][2] - stats["inner"][2]
    (name, start, end, parent, task), = tracer.spans
    assert (name, parent, task) == ("outer", None, "t0") and end > start
