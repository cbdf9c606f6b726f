import json
import math
import tracemalloc

import numpy as np
import pytest

from cdpulse import cli
from cdpulse.cli import EXIT_ACCURACY, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from cdpulse.dynamics import HamiltonianSpec
from cdpulse.protocols import Design


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
               1e17, 0.1, 1.0 / 3.0, 1.7976931348623157e308, 123456789.0]
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                        size=20000, dtype=np.int64)
    subnormal = rng.uniform(-1.0, 1.0, 2000) * 2.2250738585072014e-308
    values = np.concatenate([special, bits.view(np.float64), subnormal,
                             rng.standard_normal(2000)])
    return values[: 4 * (len(values) // 4)].reshape(4, -1)


class TestCsvWriter:
    def test_matches_per_cell_writer(self, tmp_path):
        # more rows than one chunk, a partial last chunk and an integer column
        columns = list(edge_values())
        columns.append(np.arange(len(columns[0])))
        assert len(columns[0]) > 2 * cli.CSV_CHUNK_ROWS
        header = ["a", "b", "c", "d", "n"]
        cli._write_csv(tmp_path / "new.csv", header, columns)
        reference_write_csv(tmp_path / "old.csv", header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

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
        assert key in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag", ["--mu", "--nu", "--eta", "--kappa"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_target(self, tmp_path, capsys, flag, value):
        argv = ["design", "--protocol", "single-I", "--out", str(tmp_path)]
        if flag != "--nu":
            argv += ["--nu", "0.70710678"]
        code = main(argv + [flag, value])
        assert code == EXIT_VALIDATION
        assert "target" in capsys.readouterr().err

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

    def test_non_finite_hamiltonian_is_accuracy_error(self, tmp_path, monkeypatch):
        nan_spec = HamiltonianSpec(
            3, lambda t: np.full(np.shape(t) + (3, 3), np.nan)
        )
        monkeypatch.setattr(Design, "hamiltonian", property(lambda self: nan_spec))
        code = main(
            ["evolve", "--protocol", "single-I", "--nu", "1.0", "--out", str(tmp_path)]
        )
        assert code == EXIT_ACCURACY

    @pytest.mark.parametrize(
        "argv",
        [["evolve", "--T", T] for T in ("1e-160", "1e-120", "1e150", "1e200")]
        + [["metrics", "--T", "1e-320"]],
    )
    def test_extreme_duration(self, tmp_path, capsys, argv):
        # dt**2 or dt**3 leaves the float range: exit 2, no traceback
        code = main(argv + ["--protocol", "single-I", "--nu", "0.6",
                            "--steps", "100", "--out", str(tmp_path)])
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

    def test_winding_beyond_any_step_count(self, tmp_path, capsys):
        # kappa(tf) is finite, but h*dkappa overflows RK4 at every admitted
        # step count: a bad --lambda (exit 2), not a call for more steps
        code = main(["evolve", "--protocol", "phased", "--mu", "0.6", "--nu", "0.8",
                     "--initial", "3", "--lambda", "1e300", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "--lambda" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_winding_that_more_steps_resolve(self, tmp_path, capsys):
        # too fast for 4000 steps; 100000 integrate it (test_protocols)
        code = main(["evolve", "--protocol", "phased", "--mu", "0.6", "--nu", "0.8",
                     "--initial", "3", "--lambda", "1e3", "--out", str(tmp_path)])
        assert code == EXIT_ACCURACY
        assert "increase the step count" in capsys.readouterr().err

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
