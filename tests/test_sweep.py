import importlib
import math
import random
import re
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import (
    HealthCheck,
    event,
    example,
    given,
    settings,
    strategies as st,
)

from biflag.closed_form import _body, _kernel, full_solve, solve_velocity
from biflag.core import (
    BodyGeometry,
    CompositeDrag,
    FlagellumSpec,
    FluidMedium,
    _composite_coeffs,
)
from biflag.errors import (
    AsymmetryError,
    BiflagError,
    BracketError,
    NumericalError,
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
    BACKENDS,
    OUTPUT_COLUMNS,
    SOLVERS,
    SweepSpec,
    _bounded,
    _certified,
    _frequency_grid,
    heatmap,
    linear_grid,
    oracle_full_solve,
    sweep,
)

from conftest import random_config, reference_configs, zero_corner

FAST = OracleSettings(n_segments=128, n_time=32)

#: the error of an int beyond double range, where it converts to a float
OVERFLOW = ("^floating-point overflow: the inputs lie beyond double-precision"
            " range$")

#: grid ends whose span cannot overflow
GRID_ENDS = st.floats(-1e300, 1e300, allow_nan=False)


class TestGrid:
    def test_inclusive_endpoints(self):
        grid = linear_grid(0.5, 6.0, 12)
        assert grid[0] == 0.5 and grid[-1] == 6.0
        assert len(grid) == 12

    def test_single_point(self):
        assert linear_grid(2.0, 9.0, 1) == [2.0]

    @given(ends=st.lists(GRID_ENDS, min_size=2, max_size=2),
           count=st.integers(2, 1000))
    @example(ends=[0.7, 2.9], count=5)  # once ended at 2.9000000000000004
    def test_last_point_is_the_stop_itself(self, ends, count):
        # start + (stop - start) can round past stop, by an ulp
        lo, hi = sorted(ends)
        grid = linear_grid(lo, hi, count)
        assert float.hex(grid[-1]) == float.hex(hi)
        assert all(lo <= x <= hi for x in grid)

    def test_first_point_is_the_start_itself(self):
        # start + span * 0.0 would turn -0.0 into 0.0
        grid = linear_grid(-0.0, 0.25, 3)
        assert [float.hex(x) for x in grid] == [
            float.hex(x) for x in (-0.0, 0.125, 0.25)]

    def test_overflowed_span_names_its_endpoints(self):
        # stop - start overflows although both endpoints are finite
        with pytest.raises(NumericalError, match=(
                r"^grid span from -1\.7e\+308 to 1\.7e\+308 overflows:"
                " the inputs lie beyond double-precision range$")):
            linear_grid(-1.7e308, 1.7e308, 3)
        assert linear_grid(-8e307, 8e307, 3) == [-8e307, 0.0, 8e307]

    @pytest.mark.parametrize("start,stop", [
        (0, 10**400), (-10**400, 0), (10**400, 10**401)],
        ids=["stop", "start", "both"])
    @pytest.mark.parametrize("count", [1, 3])
    def test_integer_endpoint_beyond_double_range(self, start, stop, count):
        with pytest.raises(NumericalError, match=OVERFLOW):
            linear_grid(start, stop, count)

    def test_integer_endpoints_keep_their_bits(self):
        for grid, floats in ((linear_grid(0, 2**60, 3),
                              [0.0, 2.0**59, 2.0**60]),
                             (linear_grid(3, 3, 1), [3.0])):
            assert list(map(float.hex, grid)) == list(map(float.hex, floats))

    def test_a_numpy_count_gives_python_floats(self):
        """An Integral count of another type, such as numpy's int64, is
        stored as, and builds the grid, the sweep, the heatmap and the
        static flagellum of, the equal int."""
        assert type(SweepSpec("f1", 1.0, 5.0, np.int64(5)).count) is int
        assert type(OracleSettings(n_segments=np.int64(64)).n_segments) is int
        cfg = smooth_config()
        oracle = SweepSpec("f1", 0.0, 1.0, 2, "oracle")
        outputs = (
            (linear_grid(1.0, 2.0, np.int64(3)), linear_grid(1.0, 2.0, 3)),
            (sweep(cfg, SweepSpec("f1", 1.0, 5.0, np.int64(5))).rows,
             sweep(cfg, SweepSpec("f1", 1.0, 5.0, 5)).rows),
            (vars(heatmap(cfg, (1.0, 5.0), (1.0, 5.0), (np.int64(5), 5))),
             vars(heatmap(cfg, (1.0, 5.0), (1.0, 5.0), (5, 5)))),
            # its first point, f1 = 0, has a static anterior
            (sweep(cfg, oracle, OracleSettings(n_segments=np.int64(64))).rows,
             sweep(cfg, oracle, OracleSettings(n_segments=64)).rows))

        def numbers(out):
            if isinstance(out, dict):
                out = list(out.values())
            if isinstance(out, list):
                return [x for item in out for x in numbers(item)]
            return [] if isinstance(out, str) else [out]
        for numpy_count, int_count in outputs:
            got, want = numbers(numpy_count), numbers(int_count)
            assert {type(x) for x in got} == {float}
            assert list(map(float.hex, got)) == list(map(float.hex, want))

    def test_integer_beyond_double_range_in_sweep_and_heatmap(self):
        with pytest.raises(NumericalError, match=OVERFLOW):
            sweep(smooth_config(), SweepSpec("L", 0, 10**400, 3))
        with pytest.raises(NumericalError, match=OVERFLOW):
            heatmap(default_config(), (0, 10**400), (1, 2), (3, 3))

    @pytest.mark.parametrize("start, stop, count, message", [
        ("a", 1.0, 3, "start: must be a number, got 'a'"),
        ("a", 1.0, 1, "start: must be a number, got 'a'"),
        (0.0, None, 3, "stop: must be a number, got None"),
        ("a", "b", 3, "start: must be a number, got 'a'"),
        (0, "x", 1, "stop: must be a number, got 'x'"),
        (math.nan, 1.0, 3, "start: must be a number, got nan"),
        (math.nan, 1.0, 1, "start: must be a number, got nan"),
        (0.0, math.nan, 3, "stop: must be a number, got nan"),
        (Decimal(0), Decimal(1), 3,
         r"start: must be a number that mixes with floats,"
         r" got Decimal\('0'\)"),
        (Decimal(1), Decimal(1), 1,
         r"start: must be a number that mixes with floats,"
         r" got Decimal\('1'\)"),
        (0.0, Decimal(1), 3,
         r"stop: must be a number that mixes with floats,"
         r" got Decimal\('1'\)"),
        (Decimal("NaN"), 1.0, 3,
         r"start: must be a number that mixes with floats,"
         r" got Decimal\('NaN'\)")])
    def test_endpoint_not_a_number(self, start, stop, count, message):
        with pytest.raises(ParameterError, match=f"^grid {message}$"):
            linear_grid(start, stop, count)

    @pytest.mark.parametrize("start, stop, count, message", [
        (-math.inf, 1.0, 3, "start: must be finite, got -inf"),
        (math.inf, math.inf, 3, "start: must be finite, got inf"),
        (0.0, math.inf, 1, "stop: must be finite, got inf"),
        (0, -math.inf, 3, "stop: must be finite, got -inf")])
    def test_endpoint_infinite(self, start, stop, count, message):
        # an infinite end once gave NaN points: [-inf, nan, nan]
        with pytest.raises(ParameterError, match=f"^grid {message}$"):
            linear_grid(start, stop, count)

    def test_infinite_end_in_heatmap(self):
        with pytest.raises(ParameterError,
                           match="^grid stop: must be finite, got inf$"):
            heatmap(default_config(), (0.0, 1.0), (0.0, math.inf), (3, 3))

    @pytest.mark.parametrize("f1_range, f2_range, backend, message", [
        ("ab", (0, 1), "closed_form", "start: must be a number, got 'a'"),
        ((0, "x"), (0, 1), "closed_form", "stop: must be a number, got 'x'"),
        ((0, 1), ("x", 1), "oracle", "start: must be a number, got 'x'"),
        ((0, 1), (0, Decimal(1)), "closed_form",
         r"stop: must be a number that mixes with floats,"
         r" got Decimal\('1'\)")])
    def test_heatmap_end_not_a_number(self, f1_range, f2_range, backend,
                                      message):
        with pytest.raises(ParameterError, match=f"^grid {message}$"):
            heatmap(default_config(), f1_range, f2_range, (2, 2), "U_X",
                    backend)

    def test_endpoints_checked_in_order(self):
        # each endpoint is checked for a number, then for its range
        with pytest.raises(NumericalError, match=OVERFLOW):
            linear_grid(10**400, "x", 3)
        with pytest.raises(ParameterError,
                           match="^grid start: must be a number, got 'x'$"):
            linear_grid("x", 10**400, 3)

    @pytest.mark.parametrize("count", [2.5, math.nan, "3"])
    def test_non_integer_count_rejected(self, count):
        with pytest.raises(ParameterError,
                           match=f"^count: must be an integer, got {count!r}$"):
            linear_grid(0.0, 1.0, count)

    def test_bool_count_rejected(self):
        for count in (True, False):
            with pytest.raises(ParameterError, match="^count: must be an"
                                                     f" integer, got {count}$"):
                linear_grid(0.0, 1.0, count)
            with pytest.raises(ParameterError, match="^count: must be an"
                                                     f" integer, got {count}$"):
                SweepSpec("f_sym", 0, 1, count)

    # each size bound is tested at bound + 1 only: a grid at the bound
    # would hold 2**20 points
    def test_count_beyond_the_bound_rejected(self):
        with pytest.raises(ParameterError,
                           match="^count: must be <= 1048576$"):
            linear_grid(0.0, 1.0, 2 ** 20 + 1)
        with pytest.raises(ParameterError,
                           match="^count: must be <= 1048576$"):
            SweepSpec("f_sym", 0.0, 1.0, 2 ** 20 + 1)

    def test_heatmap_points_beyond_the_bound_rejected(self):
        # 17 * 61681 is 2**20 + 1; each axis is short, the grid is not
        for backend in BACKENDS:
            with pytest.raises(ParameterError,
                               match="^counts: product must be <= 1048576$"):
                heatmap(default_config(), (0.0, 1.0), (0.0, 1.0),
                        (17, 61681), backend=backend)

    def test_non_integer_heatmap_count_rejected(self):
        with pytest.raises(ParameterError,
                           match="^count: must be an integer, got 2.5$"):
            heatmap(default_config(), (0, 1), (0, 1), (2.5, 3))


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SweepSpec(axis="speed", start=0, stop=1, count=5)
        with pytest.raises(ParameterError):
            SweepSpec(axis="f_sym", start=2, stop=1, count=5)
        with pytest.raises(ParameterError, match="^count: must be >= 1$"):
            SweepSpec(axis="f_sym", start=0, stop=1, count=0)
        with pytest.raises(ParameterError,
                           match="^count: must be an integer, got 2.5$"):
            SweepSpec("f_sym", 0, 1, 2.5)
        with pytest.raises(ParameterError,
                           match="^count: must be an integer, got nan$"):
            SweepSpec(axis="f_sym", start=0, stop=1, count=math.nan)
        with pytest.raises(ParameterError):
            SweepSpec(axis="f_sym", start=0, stop=1, count=5, backend="magic")
        with pytest.raises(ParameterError):
            SweepSpec(axis="f1", start=0, stop=1, count=5,
                      coupling=AMPLITUDE_BY_LENGTH)

    def test_hashable(self):
        # the coupling dict takes no part in the hash, only in equality
        spec = SweepSpec("L", 0.0, 1.0, 3, coupling={0.1: 0.01})
        twin = SweepSpec("L", 0, 1, 3, coupling={0.1: 0.01})
        assert spec == twin and hash(spec) == hash(twin)
        assert hash(SweepSpec("f_sym", 0, 1, 3)) == hash(
            SweepSpec("f_sym", 0.0, 1.0, 3))
        assert spec != SweepSpec("L", 0.0, 1.0, 3, coupling={0.1: 0.02})

    @pytest.mark.parametrize("start, stop, message", [
        ("a", 1, "start: must be a number, got 'a'"),
        (0, None, "stop: must be a number, got None"),
        ("a", "b", "start: must be a number, got 'a'"),
        (2, "b", "stop: must be a number, got 'b'"),
        (math.nan, 0.1, "start: must be a number, got nan"),
        (0.05, math.nan, "stop: must be a number, got nan"),
        (Decimal(0), 1, r"start: must be a number that mixes with floats,"
         r" got Decimal\('0'\)"),
        (0.05, Decimal("0.1"), r"stop: must be a number that mixes with"
         r" floats, got Decimal\('0\.1'\)"),
        (Decimal("NaN"), 1.0, r"start: must be a number that mixes with"
         r" floats, got Decimal\('NaN'\)")])
    def test_endpoint_not_a_number(self, start, stop, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            SweepSpec("L", start, stop, 3)

    @pytest.mark.parametrize("start, stop, message", [
        (-math.inf, 0.1, "start: must be finite, got -inf"),
        (0.05, math.inf, "stop: must be finite, got inf"),
        (math.inf, math.inf, "start: must be finite, got inf")])
    def test_endpoint_infinite(self, start, stop, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            SweepSpec("L", start, stop, 3)


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
        with pytest.raises(ParameterError, match="^start: must be a number,"
                                                 " got nan$"):
            SweepSpec("L", math.nan, math.nan, 2,
                      coupling=AMPLITUDE_BY_LENGTH)

    @pytest.mark.parametrize("knot", [(-math.inf, 0.006), (0.1, math.nan)])
    def test_non_finite_coupling_knot_rejected(self, knot):
        spec = SweepSpec("L", 0.05, 0.1, 3, coupling=dict([(0.065, 0.004),
                                                            knot]))
        with pytest.raises(ParameterError, match="^sweep point L_m=0.05:"
                                                 " amplitude table: must be"
                                                 " finite, got "):
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

    @pytest.mark.parametrize("f1_range,f2_range,counts,message", [
        ((0,), (0, 1), (2, 2), "f1_range: must be a pair, got (0,)"),
        ((0, 1, 2), (0, 1), (2, 2), "f1_range: must be a pair, got (0, 1, 2)"),
        ((0, 1), 5, (2, 2), "f2_range: must be a pair, got 5"),
        ((0, 1), [0, 1, 2], (2, 2), "f2_range: must be a pair, got [0, 1, 2]"),
        ((0, 1), (0, 1), (2,), "counts: must be a pair, got (2,)"),
        ((0, 1), (0, 1), 3, "counts: must be a pair, got 3"),
        ((0,), (0, 1), 3, "f1_range: must be a pair, got (0,)"),  # in order
    ])
    @pytest.mark.parametrize("backend", ["closed_form", "oracle"])
    def test_not_a_pair_rejected(self, f1_range, f2_range, counts, message,
                                 backend):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            heatmap(default_config(), f1_range, f2_range, counts,
                    backend=backend)

    def test_lists_accepted(self):  # JSON gives lists
        assert (heatmap(default_config(), [0.5, 2.0], [1.0, 3.0], [3, 2])
                == heatmap(default_config(), (0.5, 2.0), (1.0, 3.0), (3, 2)))


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
# fresh config, as sweep and heatmap solve every oracle point. The
# closed-form frequency grid, which shares one drag pair across its
# points, must match it bit for bit.

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
    @settings(max_examples=60,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(cfg=reference_configs(), f1_range=frequency_ranges(),
           f2_range=frequency_ranges(), counts=st.tuples(
               st.integers(1, 6), st.integers(1, 6)))
    def test_heatmap_cells(self, cfg, f1_range, f2_range, counts):
        args = (cfg, f1_range, f2_range, counts, self.backend, FAST)
        assert outcome(heatmaps, *args) == outcome(per_point_heatmap, *args)

    @settings(max_examples=60,
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
        # the first point solves; the second, 5e+299 Hz, overflows
        ("overflowing frequency", default_config(), (1.0, 1e300),
         (1.0, 2.0), {"closed_form": NumericalError,
                      "oracle": NumericalError}),
    ]
    # a sweep cannot descend (SweepSpec rejects start > stop), so only a
    # heatmap meets a negative frequency after points that solve
    HEATMAP_BAD_INPUTS = BAD_INPUTS + [
        ("nan f2 range", default_config(), (1.0, 3.0), (NAN, NAN),
         {"closed_form": ParameterError, "oracle": ParameterError}),
        ("descending f1 range", default_config(), (2.0, -1.0), (1.0, 2.0),
         {"closed_form": ParameterError, "oracle": ParameterError}),
        ("descending f2 range", default_config(), (1.0, 2.0), (2.0, -1.0),
         {"closed_form": ParameterError, "oracle": ParameterError}),
        ("descending f2 range, differing flagella", ASYMMETRIC, (1.0, 2.0),
         (2.0, -1.0), {"closed_form": AsymmetryError,
                       "oracle": ParameterError}),
        ("overflowing f2 range", default_config(), (1.0, 2.0), (1.0, 1e300),
         {"closed_form": NumericalError, "oracle": NumericalError}),
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
        def spec():  # a NaN endpoint fails here
            return SweepSpec(axis, *frequencies, 3, backend=self.backend)
        self.check(outcome(lambda: sweep(cfg, spec(), FAST).rows),
                   outcome(lambda: per_point_sweep(cfg, spec(), FAST)),
                   errors[self.backend])

    def test_overflow_mid_grid_message(self):
        spec = SweepSpec("f_sym", 1.0, 1e300, 3, backend=self.backend)
        with pytest.raises(NumericalError, match=(
                r"^sweep point f_hz=5e\+299: floating-point overflow: the"
                " inputs lie beyond double-precision range$")):
            sweep(default_config(), spec, FAST)

    @pytest.mark.parametrize("name,cfg,f1_range,f2_range,errors",
                             HEATMAP_BAD_INPUTS,
                             ids=[row[0] for row in HEATMAP_BAD_INPUTS])
    def test_heatmap_errors(self, name, cfg, f1_range, f2_range, errors):
        args = (cfg, f1_range, f2_range, (3, 2), self.backend, FAST)
        self.check(outcome(heatmaps, *args),
                   outcome(per_point_heatmap, *args), errors[self.backend])

    # a closed-form grid runs in rows and checks each frequency on first
    # use; each of these grids first fails, or nearly fails, past its
    # first row or column
    HEAVY = replace(default_config(), fluid=FluidMedium(rho=1e300))
    STRONG = replace(default_config(), thrust_scale=5e5)
    ROW_INPUTS = [
        # (name, cfg, f1 range, f2 range, counts,
        #  {backend: expected type, None where the grid solves})
        # Re = rho*|U|*2a/mu overflows where f1 + f2 passes about
        # 4.6e11 Hz, first at row 1, column 2
        ("overflow in a later row and column", HEAVY, (0.0, 4e11),
         (0.0, 4e11), (3, 3), {"closed_form": NumericalError,
                               "oracle": BracketError}),
        ("negative f2 after points of row 0", default_config(), (1.0, 2.0),
         (3.0, -1.5), (2, 4), {"closed_form": ParameterError,
                               "oracle": ParameterError}),
        # at (1.6e153, 1.6e153) P1 and P2 are finite but their sum is not:
        # eta is 0 and CoT infinite, as full_solve gives them
        ("power sum beyond double range", STRONG, (1.0, 1.6e153),
         (1.0, 1.6e153), (2, 2), {"closed_form": None,
                                  "oracle": BracketError}),
    ]

    @pytest.mark.parametrize("name,cfg,f1_range,f2_range,counts,errors",
                             ROW_INPUTS, ids=[row[0] for row in ROW_INPUTS])
    def test_heatmap_rows(self, name, cfg, f1_range, f2_range, counts,
                          errors):
        args = (cfg, f1_range, f2_range, counts, self.backend, FAST)
        self.check(outcome(heatmaps, *args),
                   outcome(per_point_heatmap, *args), errors[self.backend])

    # a closed-form grid forms only the outputs, not the thrusts, where
    # sweep._bounded holds; each pair of rows sits on the two sides of
    # one of its bounds
    UP = math.inf
    LONG_WAVE = default_config(lam=2.0)  # wave speed 2*f
    SCALE = 8.048312113418271e30  # the speed's denominator at 1e30 here
    # a = 0 and L = 5e-324: K_N*L rounds to 0, so the speed's denominator
    # is 0, but its numerator, about 2.4*K_N*L*(gamma-1) at beta = 0.49,
    # rounds to 5e-324
    ZERO_DENOMINATOR = replace(smooth_config(L=5e-324, A=0.049, lam=0.1),
                               body=BodyGeometry(a=0.0))
    BOUND_INPUTS = [
        # (name, cfg, f1 range, f2 range, whether the grid is bounded)
        ("frequency at 1e30", default_config(), (0.0, 1e30), (1.0, 2.0),
         True),
        ("frequency past 1e30", default_config(),
         (0.0, math.nextafter(1e30, UP)), (1.0, 2.0), False),
        ("wave speed at 1e30", LONG_WAVE, (0.0, 5e29), (1.0, 2.0), True),
        ("wave speed past 1e30", LONG_WAVE, (0.0, math.nextafter(5e29, UP)),
         (1.0, 2.0), False),
        ("rho at 1e30", replace(default_config(), fluid=FluidMedium(
            rho=1e30)), (0.0, 8.0), (0.5, 6.0), True),
        ("rho past 1e30", replace(default_config(), fluid=FluidMedium(
            rho=math.nextafter(1e30, UP))), (0.0, 8.0), (0.5, 6.0), False),
        ("mu at 1e-30", replace(default_config(), fluid=FluidMedium(
            mu=1e-30)), (0.0, 8.0), (0.5, 6.0), True),
        ("mu below 1e-30", replace(default_config(), fluid=FluidMedium(
            mu=math.nextafter(1e-30, 0.0))), (0.0, 8.0), (0.5, 6.0), False),
        ("speed denominator at 1e30", replace(
            default_config(), thrust_scale=SCALE), (0.0, 8.0), (0.5, 6.0),
         True),
        ("speed denominator past 1e30", replace(
            default_config(), thrust_scale=math.nextafter(SCALE, UP)),
         (0.0, 8.0), (0.5, 6.0), False),
        ("K_N*L past 1e30", replace(default_config(), thrust_scale=1.5e31),
         (0.0, 8.0), (0.5, 6.0), False),
        # n*h = 1 makes gamma 1: U = 0 and P > 0, so CoT is infinite
        ("gamma 1", default_config(h=0.02, n=50.0), (0.0, 8.0), (0.5, 6.0),
         True),
        # U is 0 at every point, as in _speed, yet a zero denominator
        # bounds no |U|
        ("zero denominator, non-zero numerator", ZERO_DENOMINATOR,
         (0.0, 8.0), (0.5, 6.0), False),
    ]

    @pytest.mark.parametrize("name,cfg,f1_range,f2_range,bounded",
                             BOUND_INPUTS,
                             ids=[row[0] for row in BOUND_INPUTS])
    def test_grids_on_each_side_of_the_bound(self, name, cfg, f1_range,
                                             f2_range, bounded):
        assert _bounded(_kernel(cfg), _body(cfg), cfg.anterior.lam,
                        linear_grid(*f1_range, 3), cfg.posterior.lam,
                        linear_grid(*f2_range, 2)) is bounded
        args = (cfg, f1_range, f2_range, (3, 2), self.backend, FAST)
        assert outcome(heatmaps, *args) == outcome(per_point_heatmap, *args)
        for axis, frequencies in (("f1", f1_range), ("f2", f2_range)):
            spec = SweepSpec(axis, *frequencies, 3, backend=self.backend)
            assert (outcome(lambda: sweep(cfg, spec, FAST).rows)
                    == outcome(per_point_sweep, cfg, spec, FAST))

    def test_the_zero_denominator_row_has_a_non_zero_numerator(self):
        (num, den), _, _ = _kernel(self.ZERO_DENOMINATOR)
        assert den == 0.0 and num != 0.0

    # one axis as long as the benchmark's 41-point heatmaps
    @settings(max_examples=30,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(cfg=reference_configs(), f1_range=frequency_ranges(),
           f2_range=frequency_ranges(), long=st.integers(1, 41),
           short=st.integers(1, 3), long_rows=st.booleans())
    def test_heatmap_cells_at_benchmark_length(self, cfg, f1_range, f2_range,
                                               long, short, long_rows):
        counts = (long, short) if long_rows else (short, long)
        args = (cfg, f1_range, f2_range, counts, self.backend, FAST)
        assert outcome(heatmaps, *args) == outcome(per_point_heatmap, *args)


class TestOracleFrequencyGridsEqualPerPointSolves(
        TestFrequencyGridsEqualPerPointSolves):
    """The same property and error tables on the oracle backend."""

    backend = "oracle"


class TestDragComputedOncePerGeometry:
    """Frequency enters neither drag coefficient, and the one drag memo is
    keyed by the drag inputs and thrust_scale, which identical flagella
    share: they compute one drag per config, whatever solves and
    frequency grids run on it."""

    @pytest.fixture
    def drags(self, monkeypatch):
        """A count of the drags computed since the fixture was made: the
        composite coefficients' cache misses and the CompositeDrags built,
        one per miss."""
        built = []
        original = CompositeDrag.__post_init__

        def counted(drag):
            built.append(drag)
            original(drag)

        monkeypatch.setattr(CompositeDrag, "__post_init__", counted)
        _composite_coeffs.cache_clear()
        return lambda: (_composite_coeffs.cache_info().misses, len(built))

    def test_full_solve(self, drags):
        full_solve(default_config())
        assert drags() == (1, 1)

    def test_heatmap(self, drags):
        heatmap(default_config(), (0.5, 6.0), (0.5, 6.0), (41, 41))
        assert drags() == (1, 1)

    @pytest.mark.parametrize("axis", ["f_sym", "f1", "f2"])
    def test_frequency_sweep(self, drags, axis):
        sweep(smooth_config(), SweepSpec(axis, 0.0, 9.0, 37))
        assert drags() == (1, 1)

    def test_oracle_then_closed_form(self, drags):
        cfg = default_config()
        oracle_full_solve(cfg)
        full_solve(cfg)
        assert drags() == (1, 1)

    def test_flagella_that_differ_in_wavelength(self, drags):
        cfg = default_config()
        cfg = replace(cfg, posterior=replace(cfg.posterior, lam=0.12))
        oracle_full_solve(cfg)
        with pytest.raises(AsymmetryError):
            full_solve(cfg)
        assert drags() == (2, 2)


class TestKernelBuiltOncePerGrid:
    """A closed-form frequency grid computes the constants that no
    frequency changes once, at its first point, and reuses them."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        # biflag.sweep is the sweep function, which the package re-exports
        module = importlib.import_module("biflag.sweep")
        original = module._kernel

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, "_kernel", counted)
        return calls

    def test_heatmap(self, kernel_calls):
        heatmap(default_config(), (0.5, 6.0), (0.5, 6.0), (41, 41))
        assert len(kernel_calls) == 1

    @pytest.mark.parametrize("axis", ["f_sym", "f1", "f2"])
    def test_frequency_sweep(self, kernel_calls, axis):
        sweep(smooth_config(), SweepSpec(axis, 0.0, 9.0, 37))
        assert len(kernel_calls) == 1


class TestFrequencyGridGivesUp:
    """A closed-form frequency grid's one pass returns None where _bounded
    does not hold or any check or point fails; sweep and heatmap then
    solve each point afresh (the per-point tables above compare both)."""

    CASES = [
        ("unbounded", replace(default_config(), fluid=FluidMedium(rho=1e31)),
         [1.0, 2.0], [1.0, 2.0]),
        ("frequency of no float kind", default_config(), [1.0],
         [Decimal(2)]),
        ("negative frequency", default_config(), [1.0, 2.0], [1.0, -1.0]),
        ("flagella that differ", replace(default_config(), posterior=replace(
            default_config().posterior, lam=0.12)), [1.0], [1.0]),
    ]

    @pytest.mark.parametrize("name, cfg, f1_values, f2_values", CASES,
                             ids=[case[0] for case in CASES])
    def test_returns_none(self, name, cfg, f1_values, f2_values):
        assert _frequency_grid(cfg, f1_values, f2_values, "eta") is None

    def test_bounded_grid_is_formed(self):
        assert _frequency_grid(default_config(), [1.0, 2.0], [1.0, 2.0],
                               "eta") is not None


@st.composite
def grid_failure_configs(draw):
    """reference_configs, some through zero_corner (L = 0 and a = 0, the
    speed's zero denominator) and some on a body whose mass is drawn
    log-uniform from 1 down to 5e-324, where m*g*|U| underflows."""
    cfg = draw(reference_configs())
    if draw(st.integers(0, 3)) == 0:
        cfg = zero_corner(cfg)
    if draw(st.booleans()):
        mass = math.ldexp(1.0, -draw(st.integers(0, 1074)))
        cfg = replace(cfg, body=replace(cfg.body, mass=mass))
    return cfg


class TestRowLoopFailsWhereFullSolveFails:
    """A closed-form frequency grid's row loop gives up wherever full_solve
    raises at one of its points, and otherwise forms what full_solve
    gives: every value and error of heatmap and sweep is the per-point
    solve's, compared with ==.

    The draws reach the speed's zero denominator, CoT's division by an
    underflowed m*g*|U| (and a CoT that overflows to inf just above it),
    and, in an example, gamma = 1, where U = 0 with positive power makes
    CoT infinite. No draw reaches an eta that overflows or a P0 with zero
    flagellar power: eta, an efficiency, stays of order one or below on
    every config, so the row loop's checks for those two are not run.
    """

    LIGHT = replace(default_config(), body=BodyGeometry(mass=5e-324))
    GAMMA_ONE = default_config(h=0.02, n=50.0)

    @settings(max_examples=100)
    @given(cfg=grid_failure_configs(), f1_range=frequency_ranges(),
           f2_range=frequency_ranges(), counts=st.tuples(
               st.integers(1, 4), st.integers(1, 4)))
    @example(cfg=LIGHT, f1_range=(0.0, 1.0), f2_range=(0.0, 1.0),
             counts=(2, 2))  # fails at its second point
    @example(cfg=GAMMA_ONE, f1_range=(0.5, 6.0), f2_range=(0.5, 6.0),
             counts=(2, 3))
    @example(cfg=zero_corner(default_config()), f1_range=(0.5, 6.0),
             f2_range=(0.0, 6.0), counts=(3, 2))
    def test_heatmaps(self, cfg, f1_range, f2_range, counts):
        args = (cfg, f1_range, f2_range, counts, "closed_form")
        assert outcome(heatmaps, *args) == outcome(per_point_heatmap, *args)

    @settings(max_examples=100)
    @given(cfg=grid_failure_configs(),
           axis=st.sampled_from(("f_sym", "f1", "f2")),
           frequencies=frequency_ranges(), count=st.integers(1, 12))
    @example(cfg=LIGHT, axis="f_sym", frequencies=(0.0, 1.0), count=3)
    @example(cfg=GAMMA_ONE, axis="f1", frequencies=(0.5, 6.0), count=3)
    def test_sweep_rows(self, cfg, axis, frequencies, count):
        spec = SweepSpec(axis, *frequencies, count)
        assert (outcome(lambda: sweep(cfg, spec).rows)
                == outcome(per_point_sweep, cfg, spec))


@st.composite
def certificate_grids(draw):
    """(cfg, f1_values, f2_values): a grid at the edges of
    sweep._certified. gamma below, at and above 1 (no hinge, or hinges of
    the membrane's diameter with n*h = 1 or above); a = 0, L = 0 or A =
    0; thrust_scale up to 1e300 and mass down to 5e-324; each frequency
    axis ascending from 0, descending, inside a box near 1e-150 Hz,
    where m*v^2 and U^2 reach the subnormals, or anywhere up to 12 Hz."""
    cfg = random_config(random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    gamma = draw(st.sampled_from(["drawn", "below 1", "1", "above 1"]))
    if gamma != "drawn":
        nh = {"below 1": 0.0, "1": 1.0}.get(gamma) or draw(
            st.floats(1.5, 12.0))
        hinge = dict(n=50.0 * nh, h=0.02, d_hinge=cfg.anterior.d_membrane)
        cfg = replace(cfg, anterior=replace(cfg.anterior, **hinge),
                      posterior=replace(cfg.posterior, **hinge))
    zero = draw(st.sampled_from([None, "a", "L", "A"]))
    if zero == "a":
        cfg = replace(cfg, body=replace(cfg.body, a=0.0))
    elif zero is not None:
        cfg = with_params(cfg, {zero: 0.0})
    if draw(st.booleans()):
        cfg = replace(cfg, thrust_scale=10.0 ** draw(st.floats(-30.0, 300.0)))
    mass = draw(st.sampled_from([None, 5e-324, "drawn"]))
    if mass is not None:
        mass = (mass if mass == 5e-324 else
                math.ldexp(1.0, -draw(st.integers(0, 1074))))
        cfg = replace(cfg, body=replace(cfg.body, mass=mass))

    def axis():
        kind = draw(st.sampled_from(["from 0", "descending", "tiny",
                                     "anywhere"]))
        if kind == "tiny":
            top = 10.0 ** draw(st.floats(-170.0, -140.0))
            ends = (draw(st.floats(0.0, top)), top)
        else:
            ends = (0.0 if kind == "from 0" else draw(st.floats(0.0, 12.0)),
                    draw(st.floats(0.0, 12.0)))
        lo, hi = sorted(ends)
        if kind == "descending":
            lo, hi = hi, lo
        return linear_grid(lo, hi, draw(st.integers(1, 5)))
    return cfg, axis(), axis()


class TestCertifiedGrids:
    """Where sweep._certified holds, a closed-form frequency grid forms
    each point's outputs without a check, so no point may fail: wherever
    _frequency_grid gives values, full_solve must solve every point and
    give the same bits, whatever the output."""

    @settings(max_examples=300)
    @given(certificate_grids())
    def test_each_value_is_full_solve_bit_for_bit(self, grid):
        cfg, f1_values, f2_values = grid
        shapes = [(output, f2_values, False) for output in OUTPUT_COLUMNS]
        shapes += [(None, f2_values, False), (None, f1_values, True)]
        for output, columns, diagonal in shapes:
            values = _frequency_grid(cfg, f1_values, columns, output,
                                     diagonal)
            event(f"certified: {values is not None}")
            if values is None:
                continue
            for i, f1 in enumerate(f1_values):
                for j, f2 in enumerate(columns[i:i + 1] if diagonal
                                       else columns):
                    solved = full_solve(with_params(cfg, {"f1": f1,
                                                          "f2": f2}))
                    cell = values[i][j]
                    expected = ([getattr(solved, name) for name in
                                 OUTPUT_COLUMNS] if output is None
                                else [getattr(solved, output)])
                    got = list(cell) if output is None else [cell]
                    assert list(map(float.hex, got)) == list(map(
                        float.hex, expected)), (output, f1, f2)

    # (name, cfg, f1 values, f2 values, whether _certified holds)
    LIGHT = replace(default_config(), body=BodyGeometry(mass=5e-324))
    TINY = linear_grid(0.0, 1e-160, 3)
    CASES = [
        ("default preset", default_config(), linear_grid(0.0, 6.5, 41),
         linear_grid(1.5, 8.0, 41), True),
        ("smooth preset, descending", smooth_config(),
         linear_grid(6.5, 0.0, 41), linear_grid(8.0, 1.5, 41), True),
        ("gamma 1", default_config(h=0.02, n=50.0), [1.0, 2.0], [1.0, 2.0],
         True),
        ("zero length and radius", zero_corner(default_config()),
         [1.0, 2.0], [1.0, 2.0], True),
        ("all frequencies 0", default_config(), [0.0], [0.0, 0.0], True),
        # m*g*|U| underflows at the least positive wave speed
        ("mass 5e-324", LIGHT, [0.0, 1.0], [0.0, 1.0], False),
        ("m*v_min^2 below 1e-150", default_config(), TINY, TINY, False),
        ("unbounded", replace(default_config(), fluid=FluidMedium(
            rho=1e31)), [1.0, 2.0], [1.0, 2.0], False),
    ]

    @pytest.mark.parametrize("name, cfg, f1_values, f2_values, certified",
                             CASES, ids=[case[0] for case in CASES])
    def test_certified(self, name, cfg, f1_values, f2_values, certified):
        assert _certified(_kernel(cfg), _body(cfg), cfg.anterior.lam,
                          f1_values, cfg.posterior.lam,
                          f2_values) is certified
        assert (_frequency_grid(cfg, f1_values, f2_values, "eta")
                is not None) is certified


class TestWaveTermsOncePerRowAndColumn:
    """A closed-form frequency grid forms each flagellum's wave terms once
    per row (the anterior's) and once per column (the posterior's), the
    columns' before any point; an error there, as at any point, sends the
    grid point by point, which names the speed first."""

    @pytest.fixture
    def wave_calls(self, monkeypatch):
        calls = []
        module = importlib.import_module("biflag.sweep")
        original = module._wave

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, "_wave", counted)
        return calls

    def test_heatmap(self, wave_calls):
        heatmap(default_config(), (0.5, 6.0), (0.5, 6.0), (7, 5))
        assert len(wave_calls) == 7 + 5

    @pytest.mark.parametrize("axis, calls", [("f_sym", 2 * 9), ("f1", 9 + 1),
                                             ("f2", 9 + 1)])
    def test_frequency_sweep(self, wave_calls, axis, calls):
        sweep(smooth_config(), SweepSpec(axis, 0.0, 9.0, 9))
        assert len(wave_calls) == calls

    def test_speed_checked_before_wave_terms(self):
        # at 1e160 Hz both U_X and v_w**2 overflow; the speed is named, as
        # full_solve names it at the same point
        cfg = replace(default_config(), fluid=FluidMedium(mu=1e300))
        detail = ("non-finite U_X (-inf): the inputs lie beyond"
                  " double-precision range")
        with pytest.raises(NumericalError) as solved:
            full_solve(with_params(cfg, {"f_sym": 1e160}))
        assert str(solved.value) == detail
        with pytest.raises(NumericalError) as mapped:
            heatmap(cfg, (1.0, 1e160), (1.0, 1e160), (2, 2), output="U_X")
        assert str(mapped.value) == (
            f"heatmap point f1_hz=1.0, f2_hz=1e+160: {detail}")


class TestFlagellumSpecsBuiltPerGrid:
    """A closed-form frequency grid builds no flagellum spec: it checks
    each frequency and keeps its wave speed."""

    CFG = default_config()

    @pytest.fixture
    def spec_inits(self, monkeypatch):
        calls = []
        original = FlagellumSpec.__post_init__

        def counted(spec):
            calls.append((spec.role, spec.f))
            original(spec)

        monkeypatch.setattr(FlagellumSpec, "__post_init__", counted)
        return calls

    def test_closed_form_heatmap(self, spec_inits):
        heatmap(self.CFG, (0.5, 6.0), (0.5, 6.0), (41, 41))
        assert spec_inits == []

    @pytest.mark.parametrize("axis", ["f_sym", "f1", "f2"])
    def test_closed_form_frequency_sweep(self, spec_inits, axis):
        sweep(self.CFG, SweepSpec(axis, 0.0, 9.0, 37))
        assert spec_inits == []
