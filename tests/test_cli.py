import json
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import biflag.cli
from biflag.cli import parse_quantity, run
from biflag.calibrate import builtin_dataset, save_dataset_csv
from biflag.config_io import config_to_yaml

from conftest import random_config, zero_corner

SOLVE_KEYS = ["U_X_m_s", "F1_N", "F2_N", "F_body_N", "residual_N",
              "P1_W", "P2_W", "P0_W", "eta", "CoT", "Re"]

#: 4*lambda/d overflows to inf on both flagella
SLENDER_RATIO_OVERFLOW = (
    "anterior: {lambda: 1.797e+308, d_membrane: 5.0e-324, n: 0.0}\n"
    "posterior: {lambda: 1.797e+308, d_membrane: 5.0e-324, n: 0.0}\n")


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQuantityParsing:
    def test_suffixes(self):
        assert parse_quantity("12cm") == pytest.approx(0.12)
        assert parse_quantity("4.41hz") == pytest.approx(4.41)
        assert parse_quantity("7mm") == pytest.approx(0.007)
        assert parse_quantity("0.5") == 0.5

    def test_bad_input(self):
        from biflag.cli import _ArgumentError
        with pytest.raises(_ArgumentError):
            parse_quantity("12 furlongs")
        with pytest.raises(_ArgumentError):
            parse_quantity("fast")


class TestSolve:
    def test_json_schema_and_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--config", "default")
        assert code == 0
        payload = json.loads(out)
        assert list(payload.keys()) == SOLVE_KEYS

    def test_oracle_backend(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--backend", "oracle")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["U_X_m_s"]) > 0

    def test_deterministic_stdout(self, capsys):
        _, out1, _ = run_cli(capsys, "solve")
        _, out2, _ = run_cli(capsys, "solve")
        assert out1 == out2


class TestSweepCommand:
    def test_row_count_and_header(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--axis", "f_sym",
                             "--from", "0", "--to", "6", "--count", "61",
                             "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 62
        assert lines[0].startswith("f_hz,U_m_s,")

    def test_unit_suffix_axis(self, capsys, tmp_path):
        out_csv = tmp_path / "length.csv"
        code, _, _ = run_cli(capsys, "sweep", "--axis", "L",
                             "--from", "6.5cm", "--to", "12cm", "--count", "3",
                             "--coupling", "builtin", "--out", str(out_csv))
        assert code == 0
        first = out_csv.read_text().splitlines()[1].split(",")
        assert float(first[0]) == pytest.approx(0.065)

    def test_deterministic_files(self, capsys, tmp_path):
        args = ["sweep", "--axis", "f_sym", "--from", "0", "--to", "6",
                "--count", "13"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, *args, "--out", str(a))
        run_cli(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_csv_numerals_round_trip_exactly(self, capsys, tmp_path):
        from biflag.presets import default_config
        from biflag.sweep import SweepSpec, sweep
        out_csv = tmp_path / "precise.csv"
        run_cli(capsys, "sweep", "--axis", "f_sym", "--from", "0", "--to", "6",
                "--count", "7", "--out", str(out_csv))
        text = out_csv.read_text()
        assert "\r" not in text  # LF line endings
        lines = text.splitlines()
        table = sweep(default_config(),
                      SweepSpec(axis="f_sym", start=0.0, stop=6.0, count=7))
        for line, row in zip(lines[1:], table.rows):
            parsed = [float(v) for v in line.split(",")]
            assert parsed == row  # full-precision round trip

    def test_plot_output(self, capsys, tmp_path):
        svg = tmp_path / "sweep.svg"
        code, _, _ = run_cli(capsys, "sweep", "--axis", "f_sym",
                             "--from", "0", "--to", "6", "--count", "7",
                             "--out", str(tmp_path / "s.csv"),
                             "--plot", str(svg))
        assert code == 0
        assert svg.read_text().startswith("<?xml")


class TestHeatmapCommand:
    def test_csv_layout(self, capsys, tmp_path):
        out_csv = tmp_path / "grid.csv"
        code, _, _ = run_cli(capsys, "heatmap",
                             "--f1-from", "0.5", "--f1-to", "6",
                             "--f1-count", "4",
                             "--f2-from", "0.5", "--f2-to", "6",
                             "--f2-count", "5",
                             "--output", "eta", "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "f1_hz,f2_hz,eta"
        assert len(lines) == 1 + 4 * 5


class TestOracleCheckCommand:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["by_beta"]["0.075"]["max_rel_diff"] <= 0.02


    def test_zero_speed_on_both_backends_agrees(self, capsys, tmp_path):
        # n*h = 1 with equal diameters makes gamma = 1: no thrust at all
        path = tmp_path / "isotropic.yaml"
        path.write_text("anterior: {n: 100.0, h: 0.01}\n"
                        "posterior: {n: 100.0, h: 0.01}\n")
        code, out, err = run_cli(capsys, "oracle-check", "--config", str(path))
        assert code == 0, err
        payload = json.loads(out)
        assert all(p["U_closed_m_s"] == 0.0 and p["rel_diff"] == 0.0
                   for p in payload["points"])
        assert payload["pass"] is True

    def test_zero_closed_form_speed_alone_is_one_error(self, capsys,
                                                       monkeypatch):
        monkeypatch.setattr(biflag.cli, "solve_velocity", lambda cfg: 0.0)
        code, out, err = run_cli(capsys, "oracle-check")
        assert code == 1
        assert out == ""
        assert err.startswith("error: oracle-check point beta=0.04,"
                              " f_hz=2: relative difference needs a nonzero"
                              " closed-form speed")
        assert err.count("\n") == 1


class TestCalibrateCommand:
    def test_builtin_dataset(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate")
        assert code == 0
        payload = json.loads(out)
        assert payload["thrust_scale"] > 0
        assert len(payload["points"]) == 8
        fitted = [p for p in payload["points"] if p["used_in_fit"]]
        assert len(fitted) == 6

    def test_external_dataset(self, capsys, tmp_path):
        path = tmp_path / "points.csv"
        save_dataset_csv(builtin_dataset()[0:3], path)
        code, out, _ = run_cli(capsys, "calibrate", "--dataset", str(path))
        assert code == 0
        payload = json.loads(out)
        assert len(payload["points"]) == 3
        assert payload["max_rel_error"] <= 0.30


class TestOptimizeCommand:
    def test_speed_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--objective", "speed",
                               "--bounds", "f1=0.5:6", "--config", "smooth")
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["f1"] == pytest.approx(6.0, abs=1e-9)

    def test_constraint_sum(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--objective", "efficiency",
                               "--bounds", "f1=0.5:8.32,f2=0.5:8.32",
                               "--constraint-sum", "8.82")
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["f1"] + payload["params"]["f2"] == pytest.approx(8.82)


class TestFailureModes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "simulate")
        assert code == 1
        assert err.startswith("error:")

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--axis", "f_sym")
        assert code == 1
        assert err.startswith("error:")

    def test_invalid_config_value(self, capsys, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("anterior: {f: -2}\n")
        code, _, err = run_cli(capsys, "solve", "--config", str(path))
        assert code == 1
        assert err.startswith("error:")
        assert "anterior.f" in err

    def test_numerical_failure_exit_code(self, capsys, tmp_path):
        # a bracket that cannot contain the root is a numerical failure
        path = tmp_path / "bracket.yaml"
        path.write_text("oracle: {u_min: 0.5, u_max: 1.0}\n")
        code, _, err = run_cli(capsys, "solve", "--backend", "oracle",
                               "--config", str(path))
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv,config", [
        (("sweep", "--axis", "f_sym", "--from", "0", "--to", "1e200",
          "--count", "3"), None),
        (("heatmap", "--f1-from", "0", "--f1-to", "1e200", "--f1-count", "3",
          "--f2-from", "0", "--f2-to", "1", "--f2-count", "2"), None),
        (("solve",), "body: {mass: 5.0e-324}\n"),
        (("solve", "--backend", "oracle"), "body: {mass: 5.0e-324}\n"),
        (("solve",), "anterior: {lambda: 1.0e+300}\n"
                     "posterior: {lambda: 1.0e+300}\n"),
        (("solve",), "body: {a: 1.797e+308}\n"),
        (("solve", "--backend", "oracle"),
         "anterior: {w: 1.797e+308}\nposterior: {w: 1.797e+308}\n"),
        (("solve",),
         "anterior: {w: 1.797e+308}\nposterior: {w: 1.797e+308}\n"),
        (("optimize", "--objective", "speed", "--bounds", "f1=1:3"),
         "fluid: {mu: 1.0e+307}\n"),
        (("oracle-check",), "fluid: {mu: 1.0e+307}\n"),
        (("oracle-check",), "body: {a: 1.0e+308}\n"),
        (("solve", "--backend", "oracle"),
         "anterior: {f: 0.0, L: 1.797e+308}\n"
         "posterior: {f: 0.0, L: 1.797e+308}\n"),
        (("solve",), SLENDER_RATIO_OVERFLOW),
        (("solve", "--backend", "oracle"), SLENDER_RATIO_OVERFLOW),
    ], ids=["sweep-overflow", "heatmap-overflow", "mass-underflow",
            "mass-underflow-oracle", "lambda-overflow", "radius-overflow",
            "width-overflow-oracle", "width-overflow", "viscosity-overflow",
            "viscosity-overflow-oracle-check", "radius-overflow-oracle-check",
            "static-length-overflow-oracle", "slender-ratio-overflow",
            "slender-ratio-overflow-oracle"])
    def test_out_of_range_is_numerical_failure(self, capsys, tmp_path,
                                               argv, config):
        # validated inputs beyond double-precision range: one error line
        # and exit code 2, never a raw Python exception
        argv = list(argv)
        if argv[0] in ("sweep", "heatmap"):
            argv += ["--out", str(tmp_path / "out.csv")]
        if config is not None:
            path = tmp_path / "extreme.yaml"
            path.write_text(config)
            argv += ["--config", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "beyond double-precision range" in err

    @pytest.mark.parametrize("argv,files", [
        (("sweep", "--axis", "f_sym", "--from", "0", "--to", "2x",
          "--count", "3", "--out", "{dir}/out.csv"), {}),
        (("sweep", "--axis", "f_sym", "--from", "0", "--to", "2",
          "--count", "3", "--out", "{dir}/missing/out.csv"), {}),
        (("optimize", "--objective", "speed", "--bounds", "f1"), {}),
        (("optimize", "--objective", "speed", "--bounds", ","), {}),
        (("optimize", "--objective", "speed", "--bounds", "f1=1.2.3:4"), {}),
        (("optimize", "--objective", "speed", "--bounds", "f1=0.5:6,f2=3:4",
          "--constraint-sum", "1"), {}),
        (("calibrate", "--dataset", "{dir}/points.csv"),
         {"points.csv": "0.12,4.41,4.41,0.0,0.001,still\n"}),
        (("calibrate", "--dataset", "{dir}/points.csv"),
         {"points.csv": "0.12,4.41,4.41,0.03,0.001,fitted\n"
                        "0.12,4.41,2.0,0.0,0.001,reported-only\n"}),
        (("calibrate", "--dataset", "{dir}/points.csv"),
         {"points.csv": "0.12,4.41,4.41,0.03,0.001\n"}),
        (("calibrate", "--dataset", "{dir}/points.csv"),
         {"points.csv": "abc,4.41,4.41,0.03,0.001,x\n"}),
        (("calibrate", "--dataset", "{dir}/points.csv"),
         {"points.csv": "nan,4.41,4.41,0.03,0.001,x\n"}),
        (("calibrate", "--dataset", "{dir}/points.csv"),
         {"points.csv": "0.12,4.41,4.41,nan,0.001,x\n"}),
        (("solve", "--config", "{dir}/config.yaml"),
         {"config.yaml": "anterior: {lambda: 1.0e-320, A: 0.0,"
                         " d_membrane: 1.0e+300}\n"
                         "posterior: {lambda: 1.0e-320, A: 0.0,"
                         " d_membrane: 1.0e+300}\n"}),
        (("calibrate", "--config", "{dir}/config.yaml"),
         {"config.yaml": "body: {a: 1.797e+308}\n"}),
    ], ids=["bad-unit", "missing-out-dir", "bounds-no-interval",
            "bounds-empty", "bounds-bad-number", "constraint-infeasible",
            "dataset-zero-speed-fitted", "dataset-zero-speed-reported",
            "dataset-five-fields", "dataset-not-a-number",
            "dataset-nan-length", "dataset-nan-speed",
            "slender-ratio-underflow", "fit-speed-zero-everywhere"])
    def test_invalid_input_is_one_error_line(self, capsys, tmp_path, argv,
                                             files):
        header = "L_m,f1_hz,f2_hz,speed_m_s,speed_sd_m_s,source\n"
        for name, rows in files.items():
            (tmp_path / name).write_text(
                header + rows if name.endswith(".csv") else rows)
        argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_no_command_prints_usage(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage" in err.lower()


@settings(max_examples=10,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_solve_zero_length_zero_body_config(seed, tmp_path, capsys):
    path = tmp_path / "corner.yaml"
    path.write_text(config_to_yaml(zero_corner(random_config(random.Random(seed)))))
    code, out, err = run_cli(capsys, "solve", "--config", str(path))
    assert code == 0, err
    assert json.loads(out)["U_X_m_s"] == 0.0
