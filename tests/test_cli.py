import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cdpulse import cli
from cdpulse.cli import EXIT_ACCURACY, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from cdpulse.protocols import Design
from cdpulse.schedules import CubicPolynomial
from test_dynamics import rotation_spec


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


class TestDesign:
    def test_pulse_file_and_boundary(self, tmp_path):
        code = main(
            [
                "design",
                "--protocol",
                "single-I",
                "--nu",
                "0.70710678",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        header, data = read_csv(tmp_path / "pulses.csv")
        assert header == ["t", "omega_p", "omega_s", "omega_a"]
        assert data.shape == (4001, 4)
        # endpoint nulls and the closed-form midpoint peak
        assert data[0, 3] == 0.0
        assert abs(data[-1, 3]) <= 1e-12
        mid = data[2000]
        assert abs(mid[3]) == pytest.approx(1.5 * math.pi / 4.0, abs=1e-6)
        boundary = json.loads((tmp_path / "design.json").read_text())
        assert boundary["protocol"] == "single-I"
        assert boundary["theta_f"] == pytest.approx(math.pi / 4.0)

    def test_json_format(self, tmp_path):
        code = main(
            [
                "design",
                "--protocol",
                "multi",
                "--mu",
                "0.5773502692",
                "--eta",
                "0.5773502692",
                "--format",
                "json",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "pulses.json").read_text())
        assert payload["header"] == ["t", "omega_p", "omega_s", "omega_a"]
        assert len(payload["rows"]) == 4001

    def test_deterministic_output(self, tmp_path):
        argv = [
            "design",
            "--protocol",
            "single-II",
            "--mu",
            "0.5773502692",
            "--eta",
            "0.5773502692",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert (a / "pulses.csv").read_bytes() == (b / "pulses.csv").read_bytes()


class TestEvolve:
    def test_summary_and_trajectory(self, tmp_path):
        code = main(
            [
                "evolve",
                "--protocol",
                "single-II-nomw",
                "--mu",
                "0.40824829",
                "--eta",
                "0.57735027",
                "--initial",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        expected = [1.0 / 6.0, 1.0 / 3.0, 0.5]
        assert np.allclose(summary["final_populations"], expected, atol=1e-6)
        assert summary["final_fidelity"] >= 1.0 - 1e-6
        assert summary["max_norm_drift"] <= 1e-8
        header, data = read_csv(tmp_path / "trajectory.csv")
        assert header[:4] == ["t", "P1", "P2", "P3"]
        assert "norm" in header
        assert data.shape[0] == 4001

    def test_phased_extra_columns(self, tmp_path):
        code = main(
            [
                "evolve",
                "--protocol",
                "phased",
                "--mu",
                "0.70710678",
                "--initial",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        header, data = read_csv(tmp_path / "trajectory.csv")
        for col in ("theta_prime", "kappa_prime", "bloch_x", "bloch_y", "bloch_z"):
            assert col in header
        bloch = data[:, [header.index(c) for c in ("bloch_x", "bloch_y", "bloch_z")]]
        assert np.max(np.abs(np.linalg.norm(bloch, axis=1) - 1.0)) <= 1e-10

    def test_preset(self, tmp_path):
        code = main(["evolve", "--preset", "beamsplit12", "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert np.allclose(summary["final_populations"], [0.5, 0.0, 0.5], atol=1e-6)


class TestSweepAndMetrics:
    def test_sweep(self, tmp_path):
        code = main(
            ["sweep", "--resolution", "12", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        header, data = read_csv(tmp_path / "ratio_surface.csv")
        assert header == ["mu", "eta", "omega_ratio", "energy_ratio"]
        assert data.shape == (144, 4)
        assert np.all(data[:, 2] < 1.0)
        assert np.max(np.abs(data[:, 3] - data[:, 2] ** 2)) <= 1e-10

    def test_metrics(self, tmp_path, capsys):
        code = main(
            [
                "metrics",
                "--protocol",
                "multi",
                "--mu",
                "0.5773502692",
                "--eta",
                "0.5773502692",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "metrics.json").read_text())
        printed = json.loads(capsys.readouterr().out)
        assert printed == payload
        assert payload["omega_bar"] > 0.0
        assert payload["energy_ratio"] == pytest.approx(
            payload["omega_ratio"] ** 2, abs=1e-10
        )

    @pytest.mark.parametrize("argv", [["sweep", "--resolution", "12"],
                                      ["figures", "4", "--steps", "400"]])
    def test_json_format(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path / "csv")]) == EXIT_OK
        assert main(argv + ["--format", "json", "--out", str(tmp_path / "json")]) == EXIT_OK
        tables = sorted((tmp_path / "csv").glob("*.csv"))
        assert tables
        assert not list((tmp_path / "json").glob("*.csv"))
        for path in tables:
            header, data = read_csv(path)
            payload = json.loads((tmp_path / "json" / f"{path.stem}.json").read_text())
            assert payload["header"] == header
            assert np.array_equal(np.array(payload["rows"]), data)

    @pytest.mark.parametrize("argv,name", [
        (["sweep", "--resolution", "12"], "ratio_surface"),
        (["evolve", "--protocol", "phased", "--mu", "0.6", "--nu", "0.8",
          "--initial", "3", "--steps", "200"], "trajectory"),
    ])
    def test_json_table_has_one_line_per_row(self, tmp_path, argv, name):
        assert main(argv + ["--format", "json", "--out", str(tmp_path)]) == EXIT_OK
        text = (tmp_path / f"{name}.json").read_text()
        payload = json.loads(text)
        lines = text.splitlines()
        assert len(lines) == len(payload["rows"]) + 5
        assert json.loads(lines[1].strip().removeprefix('"header":').rstrip(",")) == \
            payload["header"]
        for line, row in zip(lines[3:], payload["rows"]):
            assert json.loads(line.strip().rstrip(",")) == row


class TestFigures:
    @pytest.mark.parametrize(
        "figure,expected",
        [
            (1, ["fig1a_pulses.csv", "fig1b_populations.csv"]),
            (3, ["fig3a_fidelities.csv", "fig3d_fidelities.csv"]),
            (10, ["fig10_ratio_surface.csv"]),
            (13, ["fig13_populations.csv"]),
        ],
    )
    def test_figure_files(self, tmp_path, figure, expected):
        argv = ["figures", str(figure), "--out", str(tmp_path), "--steps", "400"]
        if figure == 10:
            argv += ["--resolution", "12"]
        assert main(argv) == EXIT_OK
        for name in expected:
            assert (tmp_path / name).exists()

    def test_unknown_figure(self, tmp_path):
        assert main(["figures", "14", "--out", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize("figure", [1, 3, 4, 5, 6, 7, 8, 9, 11, 12])
    def test_duration_flag(self, tmp_path, figure):
        argv = ["figures", str(figure), "--T", "2.5", "--steps", "100",
                "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        files = sorted(tmp_path.glob("*.csv"))
        assert files
        for path in files:
            _, data = read_csv(path)
            assert (data[0, 0], data[-1, 0]) == (0.0, 2.5)

    def test_figure2_rejects_duration(self, tmp_path, capsys):
        argv = ["figures", "2", "--T", "5", "--steps", "100", "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert "figure 2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_figure10_rejects_duration(self, tmp_path, capsys):
        argv = ["figures", "10", "--T", "5", "--resolution", "12", "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert "figure 10" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


def reference_write_csv(path, header, columns):
    """The per-cell writer that the chunked ``_write_csv`` replaced."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{float(v):.17g}" for v in row) + "\n")


def edge_values():
    rng = np.random.default_rng(29)
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
               2.2250738585072009e-308, 2.2250738585072014e-308, 1e16, -1e16,
               1e17, 0.1, 1.0 / 3.0, 1.7976931348623157e308, 123456789.0,
               # round up to the next power of ten
               9.9999999999999999e-5, 0.99999999999999999, 999999999999999.99,
               9.99999999999999999e22, -9.9999999999999999e-300,
               # E = -5, -4, 16 and 17: the edges of fixed notation
               1.2345e-5, -1.0000000000000001e-5, 0.00012345, 1e-4,
               12345678901234567.0, 10000000000000002.0, 1.2345678901234568e17]
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                        size=20000, dtype=np.int64)
    subnormal = rng.uniform(-1.0, 1.0, 2000) * 2.2250738585072014e-308
    # 10^k and its neighbours over the whole fast range and just beyond it
    # (1e-280 < |x| < 1e290)
    tens = np.array([float(f"1e{k}") for k in range(-281, 292)])
    tens = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    # exact ties at the 17th digit, 16-digit N + 0.25 or N + 0.75, and the
    # same significands at other binary exponents
    ties = rng.integers(10**15, 2**51, 500) + rng.choice([0.25, 0.75], 500)
    ties = np.concatenate([ties, np.ldexp(ties, rng.integers(-900, 900, 500))])
    near_2_53 = 2.0**53 + np.arange(-4.0, 5.0)
    values = np.concatenate([special, bits.view(np.float64), subnormal,
                             rng.standard_normal(2000), tens, -tens, ties,
                             near_2_53, -near_2_53])
    return values[: 4 * (len(values) // 4)].reshape(4, -1)


class TestCsvWriter:
    def test_matches_per_cell_writer(self, tmp_path):
        values = edge_values()
        # more cells than two chunks, a partial last chunk and an integer column
        columns = list(values) + [np.arange(values.shape[1])]
        assert len(columns[0]) * len(columns) > 2 * cli.CSV_CHUNK_CELLS
        assert len(columns[0]) % (cli.CSV_CHUNK_CELLS // len(columns)) != 0
        # then one row, one column and no row of the same cells
        cells = np.stack(columns).T.reshape(-1)
        blocks = [columns] + [
            list(cells[: rows * cols].reshape(rows, cols).T)
            for rows, cols in [(1, 5), (3 * cli.CSV_CHUNK_CELLS + 7, 1), (0, 5)]]
        for i, block in enumerate(blocks):
            header = ["a", "b", "c", "d", "n"][: len(block)]
            new, old = tmp_path / f"new{i}.csv", tmp_path / f"old{i}.csv"
            cli._write_csv(new, header, block)
            reference_write_csv(old, header, block)
            assert new.read_bytes() == old.read_bytes(), (i, header)

    def test_empty_columns(self, tmp_path):
        cli._write_csv(tmp_path / "e.csv", ["t", "x"], [np.zeros(0), np.zeros(0)])
        assert (tmp_path / "e.csv").read_text() == "t,x\n"

    def test_memory_is_chunked(self, tmp_path):
        rng = np.random.default_rng(3)
        columns = [rng.standard_normal(100_000) for _ in range(4)]
        block_bytes = sum(c.nbytes for c in columns)
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "big.csv", ["a", "b", "c", "d"], columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= block_bytes + 2**20


# every CSV the commands write: figure data, the surface, each protocol's
# trajectory (16 columns for phased) and a phased pulse file
CSV_RUNS = [["figures", str(n)] for n in range(1, 14)] + [
    ["sweep", "--resolution", "37"],
    ["evolve", "--protocol", "single-I", "--mu", "0.6", "--nu", "0.8"],
    ["evolve", "--protocol", "single-II", "--mu", "0.5", "--eta", "0.5",
     "--nu", "0.7071067811865476"],
    ["evolve", "--protocol", "single-II-nomw", "--mu", "0.6", "--nu", "0.8",
     "--initial", "2"],
    ["evolve", "--protocol", "multi", "--mu", "0.5", "--eta", "0.5",
     "--nu", "0.7071067811865476"],
    ["evolve", "--protocol", "phased", "--mu", "0.6", "--nu", "0.8",
     "--initial", "3", "--lambda", "-1.3"],
    ["design", "--protocol", "phased", "--mu", "0.6", "--nu", "0.8",
     "--initial", "3"],
]


@pytest.mark.parametrize(
    "argv", CSV_RUNS,
    ids=[f"{a[0]} {a[2] if a[1] == '--protocol' else a[1]}" for a in CSV_RUNS])
def test_csv_cells_are_percent_17g(tmp_path, argv):
    # float() reads %.17g back exactly, so re-formatting what was read must
    # give the file again, byte for byte
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
    files = sorted(tmp_path.glob("*.csv"))
    assert files
    for path in files:
        header, *rows = path.read_text().split("\n")
        assert rows.pop() == ""
        cells = [",".join("%.17g" % float(v) for v in row.split(",")) for row in rows]
        assert path.read_bytes() == "\n".join([header, *cells, ""]).encode(), path.name


class TestConfigAndErrors:
    def test_config_file_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# even split\nprotocol = single-I\nnu = 0.70710678\nsteps = 500\n"
        )
        out = tmp_path / "out"
        code = main(["design", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        _, data = read_csv(out / "pulses.csv")
        assert data.shape == (501, 4)

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("protocol = single-I\nnu = 0.70710678\nsteps = 500\n")
        out = tmp_path / "out"
        code = main(
            ["design", f"--config={cfg}", "--steps", "300", "--out", str(out)]
        )
        assert code == EXIT_OK
        _, data = read_csv(out / "pulses.csv")
        assert data.shape == (301, 4)

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("protocol single-I\n")
        assert main(["design", "--config", str(cfg)]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "line,key",
        [
            ("steps = abc", "steps='abc'"),
            ("mu = half", "mu='half'"),
            ("format = xml", "format='xml'"),
            ("branch = sideways", "branch='sideways'"),
        ],
    )
    def test_bad_config_value(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"protocol = single-I\nnu = 0.70710678\n{line}\n")
        code = main(["design", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        name, value = key.split("=")
        err = capsys.readouterr().err
        assert str(cfg) in err
        assert f"--{name}" in err
        assert value in err

    def test_negative_config_value(self, tmp_path):
        # '--nu=-0.6' keeps a leading minus a value, not a flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text("protocol = single-I\nnu = -0.6\n")
        argv = ["design", "--steps", "100", "--out"]
        assert main(argv + [str(tmp_path / "file"), "--config", str(cfg)]) == EXIT_OK
        assert main(argv + [str(tmp_path / "flag"), "--protocol", "single-I",
                            "--nu", "-0.6"]) == EXIT_OK
        for name in ("design.json", "pulses.csv"):
            flag = (tmp_path / "flag" / name).read_bytes()
            assert (tmp_path / "file" / name).read_bytes() == flag

    def test_negative_exponent_flag_value(self, tmp_path):
        # '--mu -6e-1' is a value, as '--mu=-0.6' is
        argv = ["design", "--protocol", "single-I", "--steps", "100", "--out"]
        assert main(argv + [str(tmp_path / "exp"), "--mu", "-6e-1", "--nu", "8e-1"]) == EXIT_OK
        assert main(argv + [str(tmp_path / "eq"), "--mu=-0.6", "--nu=0.8"]) == EXIT_OK
        for name in ("design.json", "pulses.csv"):
            eq = (tmp_path / "eq" / name).read_bytes()
            assert (tmp_path / "exp" / name).read_bytes() == eq

    def test_negative_exponent_reaches_validation(self, tmp_path, capsys):
        code = main(["design", "--protocol", "single-I", "--mu", "0.6", "--nu", "-1e-3",
                     "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "normalized" in capsys.readouterr().err

    def test_stray_negative_number_is_usage_error(self, tmp_path, capsys):
        code = main(["design", "--protocol", "single-I", "--mu", "0.6", "--nu", "0.8",
                     "-1e3", "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "-1e3" in capsys.readouterr().err
        assert not (tmp_path / "pulses.csv").exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("protocol = single-I\nnu = 0.70710678\nstepz = 7\n")
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(cfg) in err
        assert "--stepz" in err
        assert not out.exists()

    def test_config_keys_are_flag_names(self, tmp_path):
        # the key is the long flag without its dashes: lambda, not lambda_rate
        argv = ["design", "--protocol", "phased", "--mu", "0.6", "--nu", "0.8",
                "--initial", "3", "--steps", "200"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda = 1.5\n")
        assert main(argv + ["--lambda", "1.5", "--out", str(tmp_path / "flag")]) == EXIT_OK
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "file")]) == EXIT_OK
        assert json.loads((tmp_path / "file" / "design.json").read_text())["lambda"] == 1.5
        for name in ("design.json", "pulses.csv"):
            flag = (tmp_path / "flag" / name).read_bytes()
            assert (tmp_path / "file" / name).read_bytes() == flag

    @pytest.mark.parametrize("joined", [False, True])
    def test_abbreviated_config_flag(self, tmp_path, joined):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("protocol = single-I\nnu = 0.70710678\nsteps = 500\n")
        out = tmp_path / "out"
        conf = [f"--conf={cfg}"] if joined else ["--conf", str(cfg)]
        assert main(["design", *conf, "--out", str(out)]) == EXIT_OK
        _, data = read_csv(out / "pulses.csv")
        assert data.shape == (501, 4)

    def test_each_command_takes_only_what_it_reads(self):
        request = {"--protocol", "--mu", "--eta", "--nu", "--initial", "--T",
                   "--branch", "--lambda", "--preset"}
        reads = {
            "design": request | {"--steps", "--out", "--format", "--config"},
            "evolve": request | {"--steps", "--out", "--format", "--config"},
            "metrics": request | {"--out", "--config"},
            "sweep": {"--resolution", "--out", "--format", "--config"},
            "figures": {"--T", "--steps", "--resolution", "--out", "--format",
                        "--config"},
        }
        commands = cli.build_parser()._subparsers._group_actions[0].choices
        assert sorted(commands) == sorted(reads)
        for name, parser in commands.items():
            flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
            assert flags == reads[name], name
        # each parser's actions: its options, -h, and figures' number
        assert sum(len(parser._actions) - 1 for parser in commands.values()) == 48

    def test_only_the_invoked_subparser_is_built(self, tmp_path, monkeypatch, capsys):
        full = cli.build_parser()._subparsers._group_actions[0].choices
        for name, parser in full.items():
            alone = cli.build_parser(name)._subparsers._group_actions[0].choices
            assert list(alone) == [name]
            assert alone[name].format_help() == parser.format_help()
        built = []
        original = cli.build_parser

        def recording(*args):
            parser = original(*args)
            built.append(sorted(parser._subparsers._group_actions[0].choices))
            return parser

        monkeypatch.setattr(cli, "build_parser", recording)
        assert main(["sweep", "--resolution", "12", "--out", str(tmp_path)]) == EXIT_OK
        assert main(["sweep", "--resolution", "12", "--steps", "7"]) == EXIT_USAGE
        assert main(["bogus"]) == EXIT_USAGE
        assert main([]) == EXIT_USAGE
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "{design,evolve,sweep,metrics,figures}" in capsys.readouterr().out
        assert built == [["sweep"], ["sweep"]] + [sorted(full)] * 3

    @pytest.mark.parametrize("argv,flag", [
        (["sweep", "--resolution", "12", "--steps", "7", "--mu", "3"], "--steps"),
        (["sweep", "--resolution", "12", "--protocol", "multi"], "--protocol"),
        (["figures", "4", "--mu", "0.2"], "--mu"),
        (["figures", "4", "--preset", "cavity-bell"], "--preset"),
        (["metrics", "--protocol", "multi", "--mu", "0.5", "--steps", "7"], "--steps"),
        (["metrics", "--protocol", "multi", "--mu", "0.5", "--format", "json"],
         "--format"),
        (["design", "--protocol", "multi", "--mu", "0.5", "--resolution", "7"],
         "--resolution"),
        (["evolve", "--protocol", "multi", "--mu", "0.5", "--resolution", "7"],
         "--resolution"),
    ])
    def test_unread_option_is_usage_error(self, tmp_path, capsys, argv, flag):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_unread_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("resolution = 12\nsteps = 7\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(cfg) in err and "--steps" in err
        assert not out.exists()

    def test_missing_protocol(self):
        assert main(["design"]) == EXIT_USAGE

    def test_unnormalized_target(self, tmp_path):
        code = main(
            [
                "design",
                "--protocol",
                "single-I",
                "--mu",
                "0.9",
                "--nu",
                "0.9",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("flag", ["--mu", "--nu", "--eta"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_target(self, tmp_path, capsys, flag, value):
        argv = ["design", "--protocol", "single-I", "--out", str(tmp_path)]
        if flag != "--nu":
            argv += ["--nu", "0.70710678"]
        code = main(argv + [flag, value])
        assert code == EXIT_VALIDATION
        assert "target" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--mu", "--nu", "--eta"])
    @pytest.mark.parametrize("value", ["1e200", "-1e300", "1.5"])
    def test_target_amplitude_above_one(self, tmp_path, capsys, flag, value):
        # rejected before it is squared: 1e200**2 used to raise OverflowError
        argv = ["design", "--protocol", "multi", "--out", str(tmp_path / "out")]
        code = main(argv + [f"{flag}={value}"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"target amplitude {flag[2:]} = {float(value)} exceeds 1" in err
        assert not (tmp_path / "out").exists()

    def test_huge_amplitude_has_no_traceback(self, tmp_path):
        code, err = run_cli("design", "--protocol", "multi", "--mu", "1e200",
                            "--out", str(tmp_path / "out"))
        assert code == EXIT_VALIDATION
        assert "Traceback" not in err and "mu = 1e+200" in err

    @pytest.mark.parametrize("flag", ["--gamma", "--kappa"])
    @pytest.mark.parametrize("argv", [
        ["evolve", "--protocol", "phased", "--mu", "0.6", "--nu", "0.8", "--initial", "3"],
        ["design", "--protocol", "multi", "--mu", "0.5", "--eta", "0.5"],
    ])
    def test_target_phase_flags_are_gone(self, tmp_path, capsys, argv, flag):
        # no designer reads a target phase, so the flags no longer exist
        assert main(argv + [flag, "1.0", "--out", str(tmp_path)]) == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--protocol", "single-I", "--nu", "1.0",
             "--steps", "1000000000000"],
            ["design", "--protocol", "single-I", "--nu", "1.0",
             "--steps", "1000000000000"],
            ["sweep", "--resolution", "10000000"],
        ],
    )
    def test_oversized_request(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_VALIDATION
        assert "too large" in capsys.readouterr().err

    def test_non_finite_hamiltonian_is_accuracy_error(self, tmp_path, monkeypatch,
                                                      capsys):
        # a NaN angle: the closed form writes NaN states, and more steps
        # would not help, so the message gives no step count
        nan_spec = rotation_spec(CubicPolynomial(np.nan, 0.0, 0.0, 0.0, 0.0, 1.0))
        monkeypatch.setattr(Design, "hamiltonian", property(lambda self: nan_spec))
        code = main(
            ["evolve", "--protocol", "single-I", "--nu", "1.0", "--out", str(tmp_path)]
        )
        assert code == EXIT_ACCURACY
        err = capsys.readouterr().err
        assert "norm drift" in err
        assert "step" not in err

    @pytest.mark.parametrize(
        "argv",
        [["evolve", "--T", T, "--steps", "100"]
         for T in ("1e-160", "1e-120", "1e150", "1e200")]
        + [["metrics", "--T", "1e-320"]],
    )
    def test_extreme_duration(self, tmp_path, capsys, argv):
        # dt**2 or dt**3 leaves the float range: exit 2, no traceback
        code = main(argv + ["--protocol", "single-I", "--nu", "0.6",
                            "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "interval length" in capsys.readouterr().err

    def test_short_but_representable_duration(self, tmp_path):
        code = main(["evolve", "--protocol", "single-I", "--nu", "0.6", "--T", "1e-100",
                     "--steps", "100", "--out", str(tmp_path)])
        assert code == EXIT_OK

    @pytest.mark.parametrize("steps", ["-5", "0"])
    def test_design_too_few_samples(self, tmp_path, steps):
        code = main(["design", "--protocol", "multi", "--mu", "0.5", "--eta", "0.5",
                     "--steps", steps, "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert not (tmp_path / "pulses.csv").exists()

    def test_overflowing_winding_phase(self, tmp_path, capsys):
        # kappa(tf) = lambda*pi*T overflows; before this check np.exp warned
        # and the NaN target surfaced as a norm-drift error (exit 3)
        code = main(["evolve", "--protocol", "phased", "--mu", "0.6", "--nu", "0.8",
                     "--initial", "3", "--lambda", "1e308", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "kappa" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["1e3", "1e6", "1e12"])
    def test_representable_winding_is_exact(self, tmp_path, lam):
        # RK4 needed more steps at 1e3 and could not integrate 1e6 or 1e12
        # at any step count; the closed form reaches the target at 100
        code = main(["evolve", "--protocol", "phased", "--mu", "0.6", "--nu", "0.8",
                     "--initial", "3", "--lambda", lam, "--steps", "100",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert 1.0 - summary["final_fidelity"] <= 1e-15
        assert summary["max_norm_drift"] <= 1e-15

    def test_winding_beyond_phase_precision(self, tmp_path, capsys):
        # kappa(tf) = 1e300*pi is finite, but its ulp is about 6e284 rad
        code = main(["evolve", "--protocol", "phased", "--mu", "0.6", "--nu", "0.8",
                     "--initial", "3", "--lambda", "1e300", "--steps", "100",
                     "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "lower --lambda" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("steps", ["-5", "0"])
    def test_design_step_count_names_the_flag(self, tmp_path, capsys, steps):
        code = main(["design", "--protocol", "multi", "--mu", "0.5", "--eta", "0.5",
                     "--steps", steps, "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert f"--steps >= 1, got {steps}" in capsys.readouterr().err

    def test_unknown_flag(self):
        assert main(["design", "--protocol", "single-I", "--bogus"]) == EXIT_USAGE

    def test_too_few_steps(self, tmp_path):
        code = main(
            [
                "evolve",
                "--protocol",
                "single-I",
                "--nu",
                "1.0",
                "--steps",
                "50",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_VALIDATION

    def test_near_unit_target_renormalized(self, tmp_path):
        # 4-digit amplitudes: slight norm error is quietly rescaled
        code = main(
            [
                "design",
                "--protocol",
                "single-II",
                "--mu",
                "0.5774",
                "--eta",
                "0.5774",
                "--nu",
                "0.5774",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK


def run_cli(*argv):
    """``python -m cdpulse.cli`` in a child process: (exit code, stderr)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "cdpulse.cli", *argv], env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stderr


DESIGN_ARGV = ["design", "--protocol", "multi", "--mu", "0.5", "--eta", "0.5"]


class TestFileErrors:
    @pytest.mark.parametrize("kind", ["missing", "undecodable", "directory"])
    def test_unreadable_config(self, tmp_path, kind):
        cfg = tmp_path / "run.ini"
        if kind == "undecodable":
            cfg.write_bytes(b"\xff\xfe")
        elif kind == "directory":
            cfg.mkdir()
        out = tmp_path / "out"
        code, err = run_cli(*DESIGN_ARGV, "--config", str(cfg), "--out", str(out))
        assert code == EXIT_USAGE
        assert "Traceback" not in err
        assert str(cfg) in err
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["", "nested"])
    def test_output_under_a_regular_file(self, tmp_path, sub):
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n")
        code, err = run_cli(*DESIGN_ARGV, "--out", str(blocker / sub))
        assert code == EXIT_USAGE
        assert "Traceback" not in err
        assert str(blocker) in err
        assert blocker.read_text() == "keep\n"
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
