"""Command-line front end: design pulses, run simulations, emit data files.

Subcommands: design, evolve, sweep, figures, metrics.  All data files are
CSV with fixed 17-significant-digit formatting (byte-identical for
identical configs); run summaries are JSON.  Exit codes: 0 success,
2 validation error, 3 integration-accuracy error, 4 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .dynamics import (
    Trajectory,
    bloch_coordinates,
    cavity_qed_hamiltonian,
    evolve,
    extract_theta_kappa,
)
from .errors import (
    CdpulseError,
    IntegrationAccuracyError,
    InvalidInputError,
    UsageError,
)
from .protocols import (
    _SQ2,
    _SQ3,
    _SQ6,
    Branch,
    Design,
    Protocol,
    ProtocolRequest,
    TargetState,
    design,
    preset_targets,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ACCURACY = 3
EXIT_USAGE = 4

# CLI amplitudes are typically quoted to 4-8 digits; renormalize quietly
# below this residual, reject above it.
CLI_NORM_TOL = 1e-2

# rows per %-format call of _write_csv: keeps the per-cell work in C and the
# transient tuple and text of one chunk to a few hundred kB
CSV_CHUNK_ROWS = 1024

PULSE_HEADER = ["t", "omega_p", "omega_s", "omega_a"]
SURFACE_HEADER = ["mu", "eta", "omega_ratio", "energy_ratio"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


def _column_block(columns) -> np.ndarray:
    """Equal-length data columns as one (rows, columns) float block."""
    return np.column_stack(columns).astype(float, copy=False)


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Header line, then one row per sample, every value as ``%.17g``."""
    block = _column_block(columns)
    line = ",".join(["%.17g"] * block.shape[1]) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(block), CSV_CHUNK_ROWS):
            chunk = block[start:start + CSV_CHUNK_ROWS]
            fh.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(path: str) -> dict:
    """INI-style key=value file; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _add_common_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--protocol", choices=[x.value for x in Protocol])
    p.add_argument("--mu", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--nu", type=float)
    p.add_argument("--gamma", type=float, default=0.0, help="phase on |2>")
    p.add_argument("--kappa", type=float, default=0.0, help="phase on |3>")
    p.add_argument("--initial", help="1|2|3 or comma-separated amplitudes")
    p.add_argument("--T", type=float, default=1.0, dest="T")
    p.add_argument("--steps", type=int, default=4000)
    p.add_argument("--branch", choices=[b.value for b in Branch],
                   default=Branch.LEAST_ENERGY.value)
    p.add_argument("--lambda", type=float, dest="lambda_rate",
                   help="phase winding rate for the phased protocol")
    p.add_argument("--resolution", type=int, default=50)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--config", help="key=value config file; flags override")
    p.add_argument("--preset",
                   choices=["beamsplit12", "beamsplit13", "cavity-bell"])


def build_parser(defaults: dict | None = None) -> _Parser:
    parser = _Parser(prog="cdpulse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("design", "synthesize a pulse set and write pulses.csv/design.json"),
        ("evolve", "design, integrate, and write trajectory.csv/summary.json"),
        ("sweep", "write the single/multi-mode ratio surface"),
        ("metrics", "report time-averaged frequency and energy"),
        ("figures", "emit the canonical data set for one figure (1..13)"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common_options(p)
        if name == "figures":
            p.add_argument("figure", type=int)
        if defaults:
            known = {}
            for action in p._actions:
                if action.dest in defaults:
                    known[action.dest] = _config_value(action, defaults[action.dest])
            p.set_defaults(**known)
    return parser


def _config_value(action: argparse.Action, raw: str):
    """Coerce and check a config-file value as argparse checks the flag."""
    try:
        value = action.type(raw) if action.type else raw
    except ValueError as exc:
        raise UsageError(
            f"config value {action.dest}={raw!r} is not a valid {action.type.__name__}"
        ) from exc
    if action.choices is not None and value not in action.choices:
        raise UsageError(
            f"config value {action.dest}={raw!r} is not one of {list(action.choices)}"
        )
    return value


def _resolve_target(args) -> TargetState:
    mu, eta, nu = args.mu, args.eta, args.nu
    for name, value in (("mu", mu), ("eta", eta), ("nu", nu)):
        if value is not None and not math.isfinite(value):
            raise InvalidInputError(f"target amplitude {name} = {value} is not finite")
    eta = 0.0 if eta is None else eta
    if mu is None and nu is None:
        mu = 0.0
    known_sq = sum(v**2 for v in (mu, eta, nu) if v is not None)
    if known_sq > 1.0 + CLI_NORM_TOL:
        raise InvalidInputError(
            f"amplitudes exceed unit norm: residual {known_sq - 1.0:.3e}"
        )
    if mu is None:
        mu = math.sqrt(max(0.0, 1.0 - known_sq))
    elif nu is None:
        nu = math.sqrt(max(0.0, 1.0 - known_sq))
    residual = abs(mu**2 + eta**2 + nu**2 - 1.0)
    if residual > CLI_NORM_TOL:
        raise InvalidInputError(
            f"target not normalized: norm residual {residual:.3e}"
        )
    return TargetState.normalized(mu, eta, nu, args.gamma, args.kappa)


def _parse_initial(raw):
    if raw is None:
        return None
    if raw in {"1", "2", "3"}:
        return int(raw)
    try:
        return np.array([complex(x) for x in raw.split(",")])
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse initial state {raw!r}") from exc


def _build_request(args) -> ProtocolRequest:
    if args.preset:
        return preset_targets(args.preset, tf=args.T)
    if not args.protocol:
        raise UsageError("either --protocol or --preset is required")
    return ProtocolRequest(
        protocol=Protocol(args.protocol),
        target=_resolve_target(args),
        initial_state=_parse_initial(args.initial),
        t0=0.0,
        tf=args.T,
        branch=Branch(args.branch),
        lambda_rate=args.lambda_rate,
    )


def _design_payload(dsg: Design) -> dict:
    return {"protocol": dsg.protocol.value, **dsg.boundary}


def cmd_design(args) -> int:
    if args.steps < 1:
        raise InvalidInputError(f"need --steps >= 1, got {args.steps}")
    dsg = design(_build_request(args))
    out = Path(args.out)
    _write_table(out, "pulses", PULSE_HEADER, dsg.pulses.sample(args.steps + 1),
                 args.format)
    _write_json(out / "design.json", _design_payload(dsg))
    return EXIT_OK


def _trajectory_columns(dsg: Design, traj: Trajectory):
    """(header, columns) for the trajectory file, protocol-dependent."""
    dim = traj.dimension
    header = ["t"] + [f"P{n}" for n in range(1, dim + 1)]
    cols = [traj.times] + [traj.populations[:, n] for n in range(dim)]
    for n in range(dim):
        header += [f"re_a{n + 1}", f"im_a{n + 1}"]
        cols += [traj.states[:, n].real, traj.states[:, n].imag]
    header.append("norm")
    cols.append(traj.norms)
    if dsg.protocol is Protocol.PHASED:
        extraction = extract_theta_kappa(traj)
        bloch = bloch_coordinates(traj)
        header += ["theta_prime", "kappa_prime", "bloch_x", "bloch_y", "bloch_z"]
        cols += [extraction.theta_prime, extraction.kappa_prime,
                 bloch[:, 0], bloch[:, 1], bloch[:, 2]]
    return header, cols


def _write_table(out: Path, name: str, header: list[str], columns,
                 fmt: str = "csv") -> None:
    """``name.csv``, or ``name.json`` with a header and a list of rows."""
    if fmt == "json":
        _write_json(out / f"{name}.json",
                    {"header": header, "rows": _column_block(columns).tolist()})
    else:
        _write_csv(out / f"{name}.csv", header, columns)


def _write_trajectory(out: Path, name: str, dsg: Design, traj: Trajectory,
                      fmt: str = "csv") -> None:
    _write_table(out, name, *_trajectory_columns(dsg, traj), fmt)


def cmd_evolve(args) -> int:
    request = _build_request(args)
    dsg = design(request)
    traj = evolve(dsg.hamiltonian, dsg.initial_state, request.t0, request.tf,
                  steps=args.steps)
    out = Path(args.out)
    _write_trajectory(out, "trajectory", dsg, traj, fmt=args.format)
    _write_json(out / "summary.json", {
        "protocol": dsg.protocol.value,
        "final_populations": [float(p) for p in traj.populations[-1]],
        "final_fidelity": traj.fidelity_to(dsg.target_vector),
        "max_norm_drift": float(np.max(np.abs(traj.norms - 1.0))),
    })
    return EXIT_OK


def cmd_sweep(args) -> int:
    surface = metrics_mod.ratio_surface(args.resolution)
    _write_csv(Path(args.out) / "ratio_surface.csv", SURFACE_HEADER,
               surface.columns())
    return EXIT_OK


def cmd_metrics(args) -> int:
    request = _build_request(args)
    dsg = design(request)
    dm = metrics_mod.drive_metrics(dsg.pulses)
    payload = {
        "protocol": dsg.protocol.value,
        "omega_bar": dm.omega_bar,
        "energy_bar": dm.energy_bar,
        "peak": dm.peak,
        "T": dm.T,
    }
    tgt = request.target
    if tgt.mu >= 0.0 and tgt.eta >= 0.0 and tgt.nu >= 0.0:
        omega_ratio, energy_ratio = metrics_mod.mode_comparison_ratio(
            tgt.mu, tgt.eta, tgt.nu
        )
        payload["omega_ratio"] = omega_ratio
        payload["energy_ratio"] = energy_ratio
    _write_json(Path(args.out) / "metrics.json", payload)
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


_I, _II = Protocol.SINGLE_MODE_I, Protocol.SINGLE_MODE_II
_NOMW, _MULTI = Protocol.SINGLE_MODE_II_NO_MICROWAVE, Protocol.MULTI_MODE

# figure -> [(file stem, "pulses" or "traj", protocol, (mu, eta, nu),
# request overrides)].  Figure 10 (the ratio surface) and figure 13 (the
# cavity Hamiltonian) run differently, in _figure_runs.
FIGURES = {
    1: [("fig1a_pulses", "pulses", _I, (_SQ2, 0.0, _SQ2), {}),
        ("fig1b_populations", "traj", _I, (_SQ2, 0.0, _SQ2), {})],
    2: [(f"fig2_populations_T{tag}", "traj", _I, (0.0, 0.0, 1.0), {"tf": T})
        for T, tag in [(0.1, "0.1"), (1.0, "1"), (10.0, "10")]],
    3: [(f"fig3{tag}_fidelities", "traj", _I, (_SQ2, 0.0, _SQ2), {"branch": b})
        for tag, b in [("a", Branch.ARCSIN_PLUS), ("b", Branch.ARCCOS_MINUS),
                       ("c", Branch.ARCCOS_PLUS), ("d", Branch.ARCSIN_MINUS)]],
    4: [("fig4a_pulses", "pulses", _II, (0.0, _SQ2, _SQ2), {}),
        ("fig4b_pulses", "pulses", _II, (_SQ3, _SQ3, _SQ3), {})],
    5: [("fig5a_populations", "traj", _II, (0.0, _SQ2, _SQ2), {}),
        ("fig5b_populations", "traj", _II, (_SQ3, _SQ3, _SQ3), {})],
    6: [("fig6a_pulses", "pulses", _NOMW, (_SQ2, 0.0, _SQ2), {}),
        ("fig6b_pulses", "pulses", _NOMW, (_SQ6, _SQ3, _SQ2), {})],
    7: [("fig7a_populations", "traj", _NOMW, (_SQ2, 0.0, _SQ2), {}),
        ("fig7b_populations", "traj", _NOMW, (_SQ6, _SQ3, _SQ2), {})],
    8: [("fig8a_pulses", "pulses", _MULTI, (_SQ3, _SQ3, _SQ3), {}),
        ("fig8b_populations", "traj", _MULTI, (_SQ3, _SQ3, _SQ3), {})],
    9: [(f"fig9{tag}_populations", "traj", _MULTI, amplitudes, {})
        for tag, amplitudes in [("a", (0.0, 0.0, 1.0)), ("b", (0.0, _SQ2, _SQ2)),
                                ("c", (_SQ2, 0.5, 0.5)), ("d", (_SQ2, 0.0, _SQ2))]],
    11: [("fig11_bloch", "traj", Protocol.PHASED, (_SQ2, 0.0, _SQ2), {})],
    12: [("fig12_angles", "traj", Protocol.PHASED, (_SQ2, 0.0, _SQ2), {})],
}


def _figure_runs(args):
    """Write the data files behind one figure.

    ``--T`` is the duration of every figure with a single one; figure 2
    compares three fixed durations and figure 10 has none.
    """
    out = Path(args.out)
    fig = args.figure
    if fig == 10:
        surface = metrics_mod.ratio_surface(args.resolution)
        _write_csv(out / "fig10_ratio_surface.csv", SURFACE_HEADER,
                   surface.columns())
        return EXIT_OK
    if fig == 13:
        request = preset_targets("cavity-bell", tf=args.T)
        dsg = design(request)
        traj = evolve(cavity_qed_hamiltonian(dsg.pulses), dsg.initial_state,
                      request.t0, request.tf, steps=args.steps)
        _write_trajectory(out, "fig13_populations", dsg, traj)
        return EXIT_OK
    if fig not in FIGURES:
        raise UsageError(f"figure must be 1..13, got {fig}")
    if fig == 2 and args.T != 1.0:
        raise UsageError(
            f"figure 2 compares the durations 0.1, 1 and 10; --T {args.T} "
            "does not apply"
        )
    for stem, kind, protocol, amplitudes, overrides in FIGURES[fig]:
        request = ProtocolRequest(protocol, TargetState.normalized(*amplitudes),
                                  **{"tf": args.T, **overrides})
        dsg = design(request)
        if kind == "pulses":
            _write_csv(out / f"{stem}.csv", PULSE_HEADER,
                       dsg.pulses.sample(args.steps + 1))
        else:
            traj = evolve(dsg.hamiltonian, dsg.initial_state, request.t0,
                          request.tf, steps=args.steps)
            _write_trajectory(out, stem, dsg, traj)
    return EXIT_OK


_COMMANDS = {
    "design": cmd_design,
    "evolve": cmd_evolve,
    "sweep": cmd_sweep,
    "metrics": cmd_metrics,
    "figures": _figure_runs,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        defaults = None
        for i, token in enumerate(argv):
            if token == "--config" and i + 1 < len(argv):
                defaults = _load_config(argv[i + 1])
            elif token.startswith("--config="):
                defaults = _load_config(token.split("=", 1)[1])
        args = build_parser(defaults).parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"cdpulse: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrationAccuracyError as exc:
        print(f"cdpulse: accuracy error: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except CdpulseError as exc:
        print(f"cdpulse: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
