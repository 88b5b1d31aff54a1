import math

import pytest

from biflag.closed_form import full_solve, solve_velocity
from biflag.errors import ParameterError
from biflag.oracle import OracleSettings
from biflag.presets import AMPLITUDE_BY_LENGTH, default_config, smooth_config
from biflag.sweep import (
    SweepSpec,
    heatmap,
    linear_grid,
    oracle_full_solve,
    sweep,
)

FAST = OracleSettings(n_segments=128, n_time=32)


class TestGrid:
    def test_inclusive_endpoints(self):
        grid = linear_grid(0.5, 6.0, 12)
        assert grid[0] == 0.5 and grid[-1] == 6.0
        assert len(grid) == 12

    def test_single_point(self):
        assert linear_grid(2.0, 9.0, 1) == [2.0]


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SweepSpec(axis="speed", start=0, stop=1, count=5)
        with pytest.raises(ParameterError):
            SweepSpec(axis="f_sym", start=2, stop=1, count=5)
        with pytest.raises(ParameterError):
            SweepSpec(axis="f_sym", start=0, stop=1, count=0)
        with pytest.raises(ParameterError):
            SweepSpec(axis="f_sym", start=0, stop=1, count=5, backend="magic")
        with pytest.raises(ParameterError):
            SweepSpec(axis="f1", start=0, stop=1, count=5,
                      coupling=AMPLITUDE_BY_LENGTH)
        with pytest.raises(ParameterError):
            SweepSpec(axis="f1", start=0, stop=1, count=5, outputs=("U_Y",))


class TestSweep:
    def test_single_point_equals_full_solve(self):
        cfg = default_config()
        table = sweep(cfg, SweepSpec(axis="f_sym", start=4.41, stop=4.41, count=1))
        result = full_solve(cfg)
        assert table.columns[0] == "f_hz"
        assert table.rows[0][0] == 4.41
        assert table.rows[0][1] == result.U_X
        assert table.rows[0][5] == result.eta

    def test_deterministic(self):
        cfg = default_config()
        spec = SweepSpec(axis="f_sym", start=0.0, stop=6.0, count=13)
        t1 = sweep(cfg, spec)
        t2 = sweep(cfg, spec)
        assert t1.columns == t2.columns
        assert t1.rows == t2.rows  # bit-identical

    def test_frequency_sweep_monotone_on_smooth_baseline(self):
        table = sweep(smooth_config(),
                      SweepSpec(axis="f_sym", start=0.0, stop=6.0, count=25,
                                outputs=("U_X",)))
        speeds = [row[1] for row in table.rows]
        assert all(b >= a for a, b in zip(speeds, speeds[1:]))
        assert speeds[0] == 0.0

    def test_length_sweep_with_coupling_strictly_increasing(self):
        table = sweep(smooth_config(),
                      SweepSpec(axis="L", start=0.065, stop=0.12, count=12,
                                coupling=AMPLITUDE_BY_LENGTH, outputs=("U_X",)))
        speeds = [row[1] for row in table.rows]
        assert all(b > a for a, b in zip(speeds, speeds[1:]))

    def test_requested_outputs_only(self):
        table = sweep(default_config(),
                      SweepSpec(axis="f1", start=1.0, stop=2.0, count=3,
                                outputs=("U_X", "eta")))
        assert table.columns == ["f1_hz", "U_m_s", "eta"]
        assert all(len(row) == 3 for row in table.rows)

    def test_error_names_offending_point(self):
        # a lambda grid point below 2*A violates the amplitude bound
        with pytest.raises(ParameterError, match=r"lambda_m=0\.01"):
            sweep(default_config(),
                  SweepSpec(axis="lambda", start=0.01, stop=0.2, count=5))

    def test_oracle_backend_rows(self):
        cfg = default_config()
        table = sweep(cfg, SweepSpec(axis="f_sym", start=4.41, stop=4.41,
                                     count=1, backend="oracle"),
                      settings=FAST)
        row = dict(zip(table.columns, table.rows[0]))
        assert math.isfinite(row["U_m_s"])
        closed = solve_velocity(cfg)
        assert abs(row["U_m_s"] - closed) / abs(closed) <= 0.02


class TestBackendCoherence:
    def test_closed_and_oracle_sweeps_agree(self):
        cfg = default_config(L=0.2)  # two whole wavelengths, beta = 0.075
        spec_closed = SweepSpec(axis="f_sym", start=2.0, stop=5.28, count=3,
                                outputs=("U_X",))
        spec_oracle = SweepSpec(axis="f_sym", start=2.0, stop=5.28, count=3,
                                outputs=("U_X",), backend="oracle")
        closed = sweep(cfg, spec_closed)
        oracle = sweep(cfg, spec_oracle, settings=OracleSettings())
        for (_, u_c), (_, u_o) in zip(closed.rows, oracle.rows):
            assert abs(u_o - u_c) / abs(u_c) <= 0.02


class TestHeatmap:
    def test_single_cell(self):
        cfg = default_config()
        grid = heatmap(cfg, (4.41, 4.41), (4.41, 4.41), (1, 1), output="U_X")
        assert grid.values == [[full_solve(cfg).U_X]]

    def test_speed_grid_transpose_symmetric(self):
        grid = heatmap(default_config(), (0.0, 6.0), (0.0, 6.0), (9, 9),
                       output="U_X")
        for i in range(9):
            for j in range(9):
                a, b = grid.values[i][j], grid.values[j][i]
                assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-300)

    def test_efficiency_peaks_on_the_diagonal(self):
        n = 21
        grid = heatmap(default_config(), (0.5, 6.0), (0.5, 6.0), (n, n),
                       output="eta")
        for total in range(2 * n - 1):
            cells = [(i, total - i) for i in range(n) if 0 <= total - i < n]
            if len(cells) < 2:
                continue
            values = [grid.values[i][j] for i, j in cells]
            best = cells[values.index(max(values))]
            nearest = min(abs(i - j) for i, j in cells)
            assert abs(best[0] - best[1]) == nearest

    def test_unknown_output_rejected(self):
        with pytest.raises(ParameterError):
            heatmap(default_config(), (0, 1), (0, 1), (2, 2), output="CoT2")


class TestOracleFullSolve:
    def test_fields_consistent(self):
        cfg = default_config()
        result = oracle_full_solve(cfg, FAST)
        assert result.residual == pytest.approx(
            result.F1 + result.F2 + result.F_body, abs=1e-18)
        assert abs(result.residual) <= 1e-10
        assert result.eta == pytest.approx(
            result.P0 / (result.P1 + result.P2), rel=1e-12)
        assert result.Re > 0
