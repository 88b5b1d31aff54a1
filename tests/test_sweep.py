import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import biflag.closed_form
from biflag.closed_form import full_solve, solve_velocity
from biflag.errors import (
    AsymmetryError,
    BiflagError,
    BracketError,
    ParameterError,
    SlenderBodyError,
)
from biflag.oracle import OracleSettings
from biflag.presets import (
    AMPLITUDE_BY_LENGTH,
    default_config,
    smooth_config,
    with_params,
)
from biflag.sweep import (
    AXIS_COLUMNS,
    OUTPUT_COLUMNS,
    SOLVERS,
    SweepSpec,
    heatmap,
    linear_grid,
    oracle_full_solve,
    sweep,
)

from conftest import reference_configs

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
                      SweepSpec(axis="f_sym", start=0.0, stop=6.0, count=25))
        speed = table.columns.index("U_m_s")
        speeds = [row[speed] for row in table.rows]
        assert all(b >= a for a, b in zip(speeds, speeds[1:]))
        assert speeds[0] == 0.0

    def test_length_sweep_with_coupling_strictly_increasing(self):
        table = sweep(smooth_config(),
                      SweepSpec(axis="L", start=0.065, stop=0.12, count=12,
                                coupling=AMPLITUDE_BY_LENGTH))
        speed = table.columns.index("U_m_s")
        speeds = [row[speed] for row in table.rows]
        assert all(b > a for a, b in zip(speeds, speeds[1:]))

    def test_every_output_follows_the_axis_column(self):
        cfg = default_config()
        table = sweep(cfg, SweepSpec(axis="f1", start=1.0, stop=2.0, count=3))
        assert table.columns == ["f1_hz", "U_m_s", "P1_W", "P2_W", "P0_W",
                                 "eta", "CoT", "Re"]
        result = full_solve(with_params(cfg, {"f1": 2.0}))
        assert table.rows[-1] == [2.0, result.U_X, result.P1, result.P2,
                                  result.P0, result.eta, result.CoT, result.Re]

    def test_error_names_offending_point(self):
        # a lambda grid point below 2*A violates the amplitude bound
        with pytest.raises(ParameterError, match=r"lambda_m=0\.01"):
            sweep(default_config(),
                  SweepSpec(axis="lambda", start=0.01, stop=0.2, count=5))

    def test_nan_length_with_coupling_rejected(self):
        spec = SweepSpec("L", math.nan, math.nan, 2,
                         coupling=AMPLITUDE_BY_LENGTH)
        with pytest.raises(ParameterError, match="sweep point L_m=nan: L: must"
                                                 " be a number, got nan"):
            sweep(smooth_config(), spec)

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
        spec_closed = SweepSpec(axis="f_sym", start=2.0, stop=5.28, count=3)
        spec_oracle = SweepSpec(axis="f_sym", start=2.0, stop=5.28, count=3,
                                backend="oracle")
        closed = sweep(cfg, spec_closed)
        oracle = sweep(cfg, spec_oracle, settings=OracleSettings())
        speed = closed.columns.index("U_m_s")
        for row_c, row_o in zip(closed.rows, oracle.rows):
            u_c, u_o = row_c[speed], row_o[speed]
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


# Per-point reference: every grid point solved by its backend from a
# fresh config, the way sweep and heatmap evaluated each point before
# frequency grids shared their validated flagella (and, on the closed
# form, one drag pair) across the grid.

def per_point_sweep(cfg, spec, settings=None):
    column = AXIS_COLUMNS[spec.axis]
    rows = []
    for value in linear_grid(spec.start, spec.stop, spec.count):
        try:
            result = SOLVERS[spec.backend](
                with_params(cfg, {spec.axis: value}), settings)
        except BiflagError as exc:
            raise type(exc)(f"sweep point {column}={value!r}: {exc}") from exc
        rows.append([value] + [getattr(result, name) for name in OUTPUT_COLUMNS])
    return rows


def per_point_heatmap(cfg, f1_range, f2_range, counts, backend, settings=None):
    """{output: grid} of the backend's solve at every (f1, f2) cell."""
    grids = {name: [] for name in OUTPUT_COLUMNS}
    for f1 in linear_grid(*f1_range, counts[0]):
        for grid in grids.values():
            grid.append([])
        for f2 in linear_grid(*f2_range, counts[1]):
            try:
                result = SOLVERS[backend](
                    with_params(cfg, {"f1": f1, "f2": f2}), settings)
            except BiflagError as exc:
                raise type(exc)(f"heatmap point f1_hz={f1!r}, f2_hz={f2!r}:"
                                f" {exc}") from exc
            for name, grid in grids.items():
                grid[-1].append(getattr(result, name))
    return grids


def outcome(fn, *args):
    """fn(*args), or the type and message of the BiflagError it raises."""
    try:
        return fn(*args)
    except BiflagError as exc:
        return type(exc), str(exc)


def heatmaps(cfg, f1_range, f2_range, counts, backend, settings=None):
    return {name: heatmap(cfg, f1_range, f2_range, counts, output=name,
                          backend=backend, settings=settings).values
            for name in OUTPUT_COLUMNS}


@st.composite
def frequency_ranges(draw):
    start = draw(st.one_of(st.just(0.0), st.floats(0.0, 12.0)))
    return start, start + draw(st.one_of(st.just(0.0), st.floats(0.0, 12.0)))


class TestFrequencyGridsEqualPerPointSolves:
    """A frequency grid validates each frequency once and, on the closed
    form, shares one drag pair across its points; every value and every
    error must still be the per-point solve's on the same backend,
    compared with == (bit-identical), never approximately."""

    backend = "closed_form"

    # the oracle subclass runs these properties too; an example saved by
    # one backend's run is only replayed by the other's
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(cfg=reference_configs(), f1_range=frequency_ranges(),
           f2_range=frequency_ranges(), counts=st.tuples(
               st.integers(1, 6), st.integers(1, 6)))
    def test_heatmap_cells(self, cfg, f1_range, f2_range, counts):
        args = (cfg, f1_range, f2_range, counts, self.backend, FAST)
        assert outcome(heatmaps, *args) == outcome(per_point_heatmap, *args)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(cfg=reference_configs(),
           axis=st.sampled_from(("f_sym", "f1", "f2")),
           frequencies=frequency_ranges(), count=st.integers(1, 12))
    def test_sweep_rows(self, cfg, axis, frequencies, count):
        spec = SweepSpec(axis, *frequencies, count, backend=self.backend)
        assert (outcome(lambda: sweep(cfg, spec, FAST).rows)
                == outcome(per_point_sweep, cfg, spec, FAST))

    ASYMMETRIC = replace(default_config(), posterior=replace(
        default_config().posterior, L=0.13))
    NOT_SLENDER = default_config(d_membrane=0.2)
    NAN = float("nan")
    BAD_INPUTS = [
        # (name, cfg, sweep or f1 range, f2 range,
        #  {backend: expected type, None where the grid solves})
        ("nan endpoint", default_config(), (NAN, NAN), (1.0, 2.0),
         {"closed_form": ParameterError, "oracle": ParameterError}),
        ("negative start", default_config(), (-1.0, 2.0), (0.5, 1.0),
         {"closed_form": ParameterError, "oracle": ParameterError}),
        ("differing flagella", ASYMMETRIC, (0.0, 2.0), (0.5, 1.0),
         {"closed_form": AsymmetryError, "oracle": None}),
        ("negative start, differing flagella", ASYMMETRIC, (-1.0, 2.0),
         (0.5, 1.0), {"closed_form": ParameterError,
                      "oracle": ParameterError}),
        ("slender-body violation", NOT_SLENDER, (1.0, 2.0), (0.0, 1.0),
         {"closed_form": SlenderBodyError, "oracle": SlenderBodyError}),
        ("negative start, slender-body violation", NOT_SLENDER, (-1.0, 2.0),
         (0.5, 1.0), {"closed_form": ParameterError,
                      "oracle": ParameterError}),
        ("root outside the bracket", default_config(), (1e4, 2e4),
         (1e4, 2e4), {"closed_form": None, "oracle": BracketError}),
    ]
    HEATMAP_BAD_INPUTS = BAD_INPUTS + [
        ("nan f2 range", default_config(), (1.0, 3.0), (NAN, NAN),
         {"closed_form": ParameterError, "oracle": ParameterError}),
    ]

    @staticmethod
    def check(got, expected, error):
        assert got == expected
        if error is None:
            assert not isinstance(got, tuple)
        else:
            assert got[0] is error

    @pytest.mark.parametrize("axis", ["f_sym", "f1", "f2"])
    @pytest.mark.parametrize("name,cfg,frequencies,_,errors", BAD_INPUTS,
                             ids=[row[0] for row in BAD_INPUTS])
    def test_sweep_errors(self, axis, name, cfg, frequencies, _, errors):
        spec = SweepSpec(axis, *frequencies, 3, backend=self.backend)
        self.check(outcome(lambda: sweep(cfg, spec, FAST).rows),
                   outcome(per_point_sweep, cfg, spec, FAST),
                   errors[self.backend])

    @pytest.mark.parametrize("name,cfg,f1_range,f2_range,errors",
                             HEATMAP_BAD_INPUTS,
                             ids=[row[0] for row in HEATMAP_BAD_INPUTS])
    def test_heatmap_errors(self, name, cfg, f1_range, f2_range, errors):
        args = (cfg, f1_range, f2_range, (3, 2), self.backend, FAST)
        self.check(outcome(heatmaps, *args),
                   outcome(per_point_heatmap, *args), errors[self.backend])


class TestOracleFrequencyGridsEqualPerPointSolves(
        TestFrequencyGridsEqualPerPointSolves):
    """The same property and error tables on the oracle backend."""

    backend = "oracle"


class TestDragComputedOncePerGeometry:
    """Frequency enters neither drag coefficient, so the two flagella's
    composite drags are computed once per solve or frequency grid."""

    @pytest.fixture
    def drag_calls(self, monkeypatch):
        calls = []
        original = biflag.closed_form.composite_coeffs

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(biflag.closed_form, "composite_coeffs", counted)
        return calls

    def test_full_solve(self, drag_calls):
        full_solve(default_config())
        assert len(drag_calls) == 2

    def test_heatmap(self, drag_calls):
        heatmap(default_config(), (0.5, 6.0), (0.5, 6.0), (41, 41))
        assert len(drag_calls) == 2

    @pytest.mark.parametrize("axis", ["f_sym", "f1", "f2"])
    def test_frequency_sweep(self, drag_calls, axis):
        sweep(smooth_config(), SweepSpec(axis, 0.0, 9.0, 37))
        assert len(drag_calls) == 2
