"""Byte-for-byte gate on CLI output: stdout and every written file.

Each case runs ``biflag.cli.run`` in-process on a fixed argument set and
compares its stdout (``<case>.out``) and its output files
(``<case>.csv``, ``<case>.svg``) with the copies under ``tests/golden/``.
A refactor that leaves the arithmetic alone must leave these bytes alone.
Regenerate the copies only for an intended output change, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from biflag.cli import run

GOLDEN = Path(__file__).with_name("golden")

_SWEEP_F_SYM = ("sweep", "--axis", "f_sym", "--from", "0", "--to", "6",
                "--count", "13", "--out", "{csv}", "--plot", "{svg}")
_HEATMAP_GRID = ("--f1-from", "0.5", "--f1-to", "6", "--f1-count", "5",
                 "--f2-from", "0.5", "--f2-to", "6", "--f2-count", "5")

#: case name -> argv; "{csv}" and "{svg}" stand for the case's output files
CASES = {
    # the C12 argument sets
    "solve_default": ("solve", "--config", "default"),
    "sweep_f_sym": _SWEEP_F_SYM,
    "heatmap_eta": ("heatmap", *_HEATMAP_GRID, "--out", "{csv}"),
    "oracle_check": ("oracle-check", "--config", "default"),
    "calibrate_smooth": ("calibrate",),
    "calibrate_default": ("calibrate", "--config", "default"),
    "optimize_efficiency_sum": (
        "optimize", "--objective", "efficiency",
        "--bounds", "f1=0.5:8.32,f2=0.5:8.32", "--constraint-sum", "8.82",
        "--config", "default"),
    # every sweep axis, both backends, and the design axes of optimize
    "solve_smooth_oracle": ("solve", "--config", "smooth",
                            "--backend", "oracle"),
    "sweep_L_builtin": ("sweep", "--axis", "L", "--from", "6.5cm",
                        "--to", "12cm", "--count", "12",
                        "--coupling", "builtin", "--out", "{csv}",
                        "--plot", "{svg}"),
    "sweep_lambda": ("sweep", "--axis", "lambda", "--from", "8cm",
                     "--to", "12cm", "--count", "9", "--out", "{csv}"),
    "sweep_A": ("sweep", "--axis", "A", "--from", "0", "--to", "7mm",
                "--count", "8", "--out", "{csv}"),
    "sweep_f2_smooth": ("sweep", "--config", "smooth", "--axis", "f2",
                        "--from", "0", "--to", "6", "--count", "7",
                        "--out", "{csv}"),
    "sweep_f1_oracle": ("sweep", "--axis", "f1", "--from", "0", "--to", "6",
                        "--count", "4", "--backend", "oracle",
                        "--out", "{csv}"),
    "heatmap_oracle_U": ("heatmap", "--f1-from", "1", "--f1-to", "5",
                         "--f1-count", "3", "--f2-from", "1", "--f2-to", "5",
                         "--f2-count", "3", "--output", "U_X",
                         "--backend", "oracle", "--out", "{csv}"),
    "optimize_speed_3axis": (
        "optimize", "--objective", "speed",
        "--bounds", "L=6.5cm:12cm,A=2mm:7mm,lambda=8cm:12cm",
        "--config", "smooth"),
    "optimize_speed_f1_f2": ("optimize", "--objective", "speed",
                             "--bounds", "f1=0.5:6,f2=0.5:6",
                             "--config", "smooth"),
}


def run_case(name: str, workdir: Path) -> dict[str, bytes]:
    """Outputs of one case keyed by golden file name; the exit code must be 0."""
    files = {ext: workdir / f"{name}.{ext}" for ext in ("csv", "svg")}
    argv = [arg.format(**{ext: str(path) for ext, path in files.items()})
            for arg in CASES[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run(argv)
    assert code == 0, f"{name}: exit code {code}"
    outputs = {f"{name}.out": stdout.getvalue().encode("utf-8")}
    for ext, path in files.items():
        if f"{{{ext}}}" in CASES[name]:
            outputs[path.name] = path.read_bytes()
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    for filename, data in run_case(name, tmp_path).items():
        expected = (GOLDEN / filename).read_bytes()
        assert data == expected, f"{filename} differs from its golden copy"


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for filename, data in run_case(case, Path(tmp)).items():
                (GOLDEN / filename).write_bytes(data)
