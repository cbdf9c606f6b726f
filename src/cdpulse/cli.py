"""Command-line front end: design pulses, run simulations, emit data files.

Subcommands: design, evolve, sweep, figures, metrics, each taking only the
options it reads (another, or a config key naming one, is a usage error).
Data files are CSV, or JSON with --format json; run summaries are JSON.
Every CSV cell is the '%.17g' text of its value, so identical configs give
byte-identical files.  numpy writes that text a few thousand cells at a
time (_csvtext.csv_text); Python's own '%.17g' formats NaN, infinities,
subnormal and out-of-range values, and values within 1e-6 of a
17th-digit rounding tie.  Exit codes:
0 success, 2 validation error, 3 integration-accuracy error, 4 usage error
(a bad command line, an unreadable config file or an unwritable output
file).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from ._csvtext import csv_text
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

# cells per csv_text call of _write_csv: its temporaries, about 150 B per
# cell, stay near 0.6 MB and in cache
CSV_CHUNK_CELLS = 4096

PULSE_HEADER = ["t", "omega_p", "omega_s", "omega_a"]
SURFACE_HEADER = ["mu", "eta", "omega_ratio", "energy_ratio"]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses exponents, so "--mu -6e-1" would
        # read "-6e-1" as an option; subparsers are built by this class too
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


@contextmanager
def _file_access(path, action: str):
    """Turn a failure to ``action`` ``path`` into a usage error naming the path."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        where = getattr(exc, "filename", None) or path
        reason = getattr(exc, "strerror", None) or exc
        raise UsageError(f"cannot {action} {where}: {reason}") from exc


def _column_block(columns) -> np.ndarray:
    """Equal-length data columns as one (rows, columns) float block."""
    return np.column_stack(columns).astype(float, copy=False)


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Header line, then one row per sample, every value as ``%.17g``."""
    block = _column_block(columns)
    rows = max(1, CSV_CHUNK_CELLS // block.shape[1])
    with _file_access(path, "write"):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            for start in range(0, len(block), rows):
                fh.write(csv_text(block[start:start + rows]))


def _write_text(path: Path, text: str) -> None:
    with _file_access(path, "write"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _config_tokens(path: str) -> list[str]:
    """A key = value file as '--key=value' tokens; '#' starts a comment."""
    with _file_access(path, "read config file"):
        text = Path(path).read_text()
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        tokens.append(f"--{key.strip()}={value.strip()}")
    return tokens


# every option as (flag, add_argument keywords), in help order
_OPTIONS = {
    "--protocol": {"choices": [x.value for x in Protocol]},
    "--mu": {"type": float},
    "--eta": {"type": float},
    "--nu": {"type": float},
    "--initial": {"help": "1|2|3 or comma-separated amplitudes"},
    "--T": {"type": float, "default": 1.0, "dest": "T"},
    "--steps": {"type": int, "default": 4000},
    "--branch": {"choices": [b.value for b in Branch],
                 "default": Branch.LEAST_ENERGY.value},
    "--lambda": {"type": float, "dest": "lambda_rate",
                 "help": "phase winding rate for the phased protocol"},
    "--resolution": {"type": int, "default": 50},
    "--out": {"default": ".", "help": "output directory"},
    "--format": {"choices": ["csv", "json"], "default": "csv"},
    "--config": {"help": "file of 'flag = value' lines, flags named without "
                 "their dashes; command-line flags override"},
    "--preset": {"choices": ["beamsplit12", "beamsplit13", "cavity-bell"]},
}
_REQUEST_OPTIONS = {"--protocol", "--mu", "--eta", "--nu", "--initial", "--T",
                    "--branch", "--lambda", "--preset"}

# subcommand -> (help, the options its command reads); argparse rejects the
# rest, on the command line and in a config file, as usage errors
_SUBCOMMANDS = {
    "design": ("synthesize a pulse set and write pulses.csv/design.json",
               _REQUEST_OPTIONS | {"--steps", "--out", "--format", "--config"}),
    "evolve": ("design, integrate, and write trajectory.csv/summary.json",
               _REQUEST_OPTIONS | {"--steps", "--out", "--format", "--config"}),
    "sweep": ("write the single/multi-mode ratio surface",
              {"--resolution", "--out", "--format", "--config"}),
    "metrics": ("report time-averaged frequency and energy",
                _REQUEST_OPTIONS | {"--out", "--config"}),
    "figures": ("emit the canonical data set for one figure (1..13)",
                {"--T", "--steps", "--resolution", "--out", "--format", "--config"}),
}


def build_parser(command: str | None = None) -> _Parser:
    """The command-line parser, with ``command``'s subparser alone if it is one.

    Building the five subparsers costs several times the parse itself, so
    ``main`` builds only the one its command line invokes; top-level help
    and an unknown command get all five.
    """
    parser = _Parser(prog="cdpulse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    names = [command] if command in _SUBCOMMANDS else list(_SUBCOMMANDS)
    for name in names:
        help_text, reads = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in _OPTIONS.items():
            if flag in reads:
                p.add_argument(flag, **keywords)
        if name == "figures":
            p.add_argument("figure", type=int)
    return parser


def _resolve_target(args) -> TargetState:
    mu, eta, nu = args.mu, args.eta, args.nu
    for name, value in (("mu", mu), ("eta", eta), ("nu", nu)):
        if value is not None and not math.isfinite(value):
            raise InvalidInputError(f"target amplitude {name} = {value} is not finite")
        # checked before any square is taken, which could overflow
        if value is not None and abs(value) > 1.0 + CLI_NORM_TOL:
            raise InvalidInputError(f"target amplitude {name} = {value} exceeds 1")
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
    return TargetState.normalized(mu, eta, nu)


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
    pops = traj.populations
    cols = [traj.times] + [pops[:, n] for n in range(dim)]
    for n in range(dim):
        header += [f"re_a{n + 1}", f"im_a{n + 1}"]
        cols += [traj.states[:, n].real, traj.states[:, n].imag]
    header.append("norm")
    cols.append(np.sqrt(np.sum(pops, axis=1)))  # traj.norms, from pops
    if dsg.protocol is Protocol.PHASED:
        theta_prime, kappa_prime = extract_theta_kappa(traj)
        bloch = bloch_coordinates(traj)
        header += ["theta_prime", "kappa_prime", "bloch_x", "bloch_y", "bloch_z"]
        cols += [theta_prime, kappa_prime, bloch[:, 0], bloch[:, 1], bloch[:, 2]]
    return header, cols


def _write_table(out: Path, name: str, header: list[str], columns,
                 fmt: str) -> None:
    """``name.csv``, or ``name.json`` with a header and a list of rows.

    The JSON holds the header on one line and one row per line.
    """
    if fmt == "json":
        rows = ",\n    ".join(map(json.dumps, _column_block(columns).tolist()))
        _write_text(out / f"{name}.json", f'{{\n  "header": {json.dumps(header)},\n'
                    f'  "rows": [\n    {rows}\n  ]\n}}\n')
    else:
        _write_csv(out / f"{name}.csv", header, columns)


def _write_trajectory(out: Path, name: str, dsg: Design, traj: Trajectory,
                      fmt: str) -> None:
    _write_table(out, name, *_trajectory_columns(dsg, traj), fmt)


def cmd_evolve(args) -> int:
    request = _build_request(args)
    dsg = design(request)
    traj = evolve(dsg.hamiltonian, dsg.initial_state, request.t0, request.tf,
                  steps=args.steps)
    out = Path(args.out)
    _write_trajectory(out, "trajectory", dsg, traj, args.format)
    _write_json(out / "summary.json", {
        "protocol": dsg.protocol.value,
        "final_populations": [float(p) for p in traj.populations[-1]],
        "final_fidelity": traj.fidelity_to(dsg.target_vector),
        "max_norm_drift": float(np.max(np.abs(traj.norms - 1.0))),
    })
    return EXIT_OK


def cmd_sweep(args) -> int:
    surface = metrics_mod.ratio_surface(args.resolution)
    _write_table(Path(args.out), "ratio_surface", SURFACE_HEADER,
                 surface.columns(), args.format)
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
    compares three fixed durations and figure 10 has none, so both refuse
    a ``--T`` other than 1.
    """
    out = Path(args.out)
    fig = args.figure
    if fig in (2, 10) and args.T != 1.0:
        raise UsageError(f"figure {fig} takes no --T, got {args.T}")
    if fig == 10:
        surface = metrics_mod.ratio_surface(args.resolution)
        _write_table(out, "fig10_ratio_surface", SURFACE_HEADER,
                     surface.columns(), args.format)
        return EXIT_OK
    if fig == 13:
        request = preset_targets("cavity-bell", tf=args.T)
        dsg = design(request)
        traj = evolve(cavity_qed_hamiltonian(dsg.pulses), dsg.initial_state,
                      request.t0, request.tf, steps=args.steps)
        _write_trajectory(out, "fig13_populations", dsg, traj, args.format)
        return EXIT_OK
    if fig not in FIGURES:
        raise UsageError(f"figure must be 1..13, got {fig}")
    for stem, kind, protocol, amplitudes, overrides in FIGURES[fig]:
        request = ProtocolRequest(protocol, TargetState.normalized(*amplitudes),
                                  **{"tf": args.T, **overrides})
        dsg = design(request)
        if kind == "pulses":
            _write_table(out, stem, PULSE_HEADER,
                         dsg.pulses.sample(args.steps + 1), args.format)
        else:
            traj = evolve(dsg.hamiltonian, dsg.initial_state, request.t0,
                          request.tf, steps=args.steps)
            _write_trajectory(out, stem, dsg, traj, args.format)
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
        parser = build_parser(argv[0] if argv else None)
        args = parser.parse_args(argv)
        if args.config:
            # the file's options go right after the subcommand, so that the
            # command line's own flags, parsed later, override them
            at = argv.index(args.command) + 1
            tokens = _config_tokens(args.config)
            try:
                args = parser.parse_args(argv[:at] + tokens + argv[at:])
            except UsageError as exc:
                raise UsageError(f"{args.config}: {exc}") from exc
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
