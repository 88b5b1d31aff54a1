import csv
import gc
import itertools
import math
import os
import random
import re
import tempfile
import threading
from collections import Counter
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from biflag import calibrate, closed_form
from biflag.calibrate import (
    CalibrationResult,
    DesignBounds,
    ExperimentalPoint,
    builtin_dataset,
    fit_thrust_scale,
    load_dataset_csv,
    model_speed,
    optimize_design,
    point_config,
    save_dataset_csv,
    symmetric_points,
)
from biflag.closed_form import (
    RobotConfig,
    _shape,
    full_solve,
    solve_velocity,
)
from biflag.core import CompositeDrag, FlagellumSpec
from biflag.errors import (
    BiflagError,
    DomainError,
    InconsistencyError,
    NumericalError,
    ParameterError,
)
from biflag.presets import (
    AMPLITUDE_BY_LENGTH,
    amplitude_for_length,
    default_config,
    smooth_config,
    with_params,
)
from biflag.sweep import linear_grid

from conftest import random_config
from digest import MISMATCHES, mismatched, power_top

#: the error of an int beyond double range, where it converts to a float
OVERFLOW = ("^floating-point overflow: the inputs lie beyond double-precision"
            " range$")


class TestDataset:
    def test_eight_points_all_positive(self):
        points = builtin_dataset()
        assert len(points) == 8
        assert all(p.speed > 0 for p in points)

    def test_dual_actuation_point_kept_separately(self):
        points = builtin_dataset()
        same_condition = [p for p in points
                          if p.L == 0.12 and p.f1 == 4.41 and p.f2 == 4.41]
        assert sorted(p.speed for p in same_condition) == [0.0309, 0.0332]
        assert len({p.source for p in same_condition}) == 2

    def test_symmetric_filter_drops_single_flagellum_runs(self):
        points = symmetric_points(builtin_dataset())
        assert len(points) == 6
        assert all(p.f1 == p.f2 for p in points)

    def test_invariants(self):
        with pytest.raises(ParameterError):
            ExperimentalPoint(0.12, 1.0, 1.0, -0.01, 0.0, "x")
        with pytest.raises(ParameterError):
            ExperimentalPoint(0.12, 1.0, 1.0, 0.01, -1.0, "x")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["L", "f1", "f2", "speed", "speed_sd"])
    def test_non_finite_field_rejected(self, field, value):
        values = {"L": 0.12, "f1": 4.41, "f2": 4.41, "speed": 0.03,
                  "speed_sd": 0.001}
        values[field] = value
        with pytest.raises(ParameterError,
                           match=f"^{field}: must be finite, got {value!r}$"):
            ExperimentalPoint(**values, source="x")

    @pytest.mark.parametrize("value, message", [
        ("x", "must be a number, got 'x'"),
        (Decimal("NaN"), "must be a number that mixes with floats, got"
                         " Decimal('NaN')")], ids=["string", "decimal-nan"])
    @pytest.mark.parametrize("field", ["L", "f1", "f2", "speed", "speed_sd"])
    def test_non_number_field_rejected(self, field, value, message):
        values = {"L": 0.12, "f1": 4.41, "f2": 4.41, "speed": 0.03,
                  "speed_sd": 0.001, field: value}
        with pytest.raises(ParameterError,
                           match=f"^{field}: {re.escape(message)}$"):
            ExperimentalPoint(**values, source="x")

    @pytest.mark.parametrize("field", ["L", "f1", "f2", "speed", "speed_sd"])
    def test_integer_beyond_double_range_rejected(self, field):
        values = {"L": 0.12, "f1": 4.41, "f2": 4.41, "speed": 0.03,
                  "speed_sd": 0.001, field: 10**400}
        with pytest.raises(NumericalError, match=OVERFLOW):
            ExperimentalPoint(**values, source="x")

    def test_csv_round_trip(self, tmp_path):
        points = builtin_dataset()
        path = tmp_path / "dataset.csv"
        save_dataset_csv(points, path)
        header = path.read_text().splitlines()[0]
        assert header == "L_m,f1_hz,f2_hz,speed_m_s,speed_sd_m_s,source"
        assert load_dataset_csv(path) == points

    def test_csv_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("L,f1\n0.1,1\n")
        with pytest.raises(DomainError) as raised:
            load_dataset_csv(path)
        assert str(raised.value) == (
            f"dataset CSV file {path!r}: must start with header"
            " L_m,f1_hz,f2_hz,speed_m_s,speed_sd_m_s,source")

    def test_csv_row_field_count_names_the_file(self, tmp_path):
        path = str(tmp_path / "short.csv")
        save_dataset_csv(builtin_dataset()[:2], path)
        with open(path, "a") as fh:
            fh.write("0.12,4.41,4.41,0.03,0.001\n")
        with pytest.raises(DomainError) as raised:
            load_dataset_csv(path)
        assert str(raised.value) == (
            f"dataset CSV file {path!r}, line 4: row has 5 fields:"
            " ['0.12', '4.41', '4.41', '0.03', '0.001']")

    @pytest.mark.parametrize("column", range(5))
    @pytest.mark.parametrize("text", ["abc", "nan", "inf", "-inf", ""])
    def test_csv_field_not_a_finite_number(self, tmp_path, column, text):
        path = tmp_path / "bad.csv"
        save_dataset_csv(builtin_dataset()[:2], path)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[column] = text
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        name = "L_m,f1_hz,f2_hz,speed_m_s,speed_sd_m_s".split(",")[column]
        with pytest.raises(DomainError) as raised:
            load_dataset_csv(path)
        assert str(raised.value) == (f"dataset CSV line 3, column {name}: must"
                                     f" be a finite number, got {text!r}")

    def test_csv_file_that_is_not_utf8(self, tmp_path):
        path = str(tmp_path / "bin.csv")
        with open(path, "wb") as fh:
            fh.write(b"\xff\xfe")
        with pytest.raises(DomainError) as raised:
            load_dataset_csv(path)
        assert str(raised.value) == (
            f"cannot read dataset CSV file {path!r}: 'utf-8' codec can't"
            " decode byte 0xff in position 0: invalid start byte")

    @pytest.mark.parametrize("kind, reason", [
        ("missing", "[Errno 2] No such file or directory"),
        ("directory", "[Errno 21] Is a directory"),
    ])
    def test_csv_file_that_cannot_be_opened(self, tmp_path, kind, reason):
        path = str(tmp_path / "points.csv")
        if kind == "directory":
            os.mkdir(path)
        with pytest.raises(DomainError) as raised:
            load_dataset_csv(path)
        assert str(raised.value) == (
            f"cannot read dataset CSV file {path!r}: {reason}: {path!r}")

    def test_csv_crlf_copy_loads_equal(self, tmp_path):
        path = tmp_path / "lf.csv"
        save_dataset_csv(builtin_dataset(), path)
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert load_dataset_csv(crlf) == load_dataset_csv(path) == (
            builtin_dataset())

    @settings(max_examples=200)
    @given(st.lists(st.builds(
        ExperimentalPoint,
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(0.0, allow_infinity=False),
        st.floats(0.0, allow_infinity=False),
        st.lists(st.sampled_from([",", '"', "\r", "\n", "\r\n", " ", "x",
                                  "é", "→", "😀"]) | st.text(max_size=4),
                 max_size=6).map("".join)), max_size=4))
    @example([ExperimentalPoint(0.12, 4.41, 4.41, 0.03, 0.001, "a\rb"),
              ExperimentalPoint(-0.0, 5e-324, 1e308, 0.0, 0.0, '"\r\n,é\n')])
    def test_csv_round_trip_of_any_points(self, points):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "points.csv")
            save_dataset_csv(points, path)
            assert load_dataset_csv(path) == points

    @pytest.mark.parametrize("points, message", [
        ([1], "points: must hold ExperimentalPoints, got 1"),
        (builtin_dataset()[:1] + ["x"],
         "points: must hold ExperimentalPoints, got 'x'"),
        (1, "points: must be an iterable, got 1"),
    ], ids=["int", "after-a-point", "not-iterable"])
    def test_save_checks_every_point_before_opening(self, tmp_path, points,
                                                     message):
        path = tmp_path / "points.csv"
        with pytest.raises(ParameterError) as raised:
            save_dataset_csv(points, path)
        assert str(raised.value) == message
        assert not path.exists()

    @pytest.mark.parametrize("source", [None, 3, "a\ud800"],
                             ids=["none", "int", "lone-surrogate"])
    def test_source_must_be_utf8_text(self, tmp_path, source):
        """A label that is no str, or that UTF-8 cannot encode, would not
        load back as written; save_dataset_csv then writes nothing."""
        message = ("^source: must be a str that encodes as UTF-8, got "
                   + re.escape(repr(source)) + "$")
        with pytest.raises(ParameterError, match=message):
            ExperimentalPoint(0.1, 1.0, 1.0, 0.01, 0.0, source)
        path = tmp_path / "points.csv"
        with pytest.raises(ParameterError, match=message):
            save_dataset_csv((ExperimentalPoint(0.1, 1.0, 1.0, 0.01, 0.0,
                                                label)
                              for label in ("ok", source)), path)
        assert not path.exists()

    def test_save_to_a_directory_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            save_dataset_csv(builtin_dataset(), tmp_path)

    def test_csv_field_beyond_the_field_limit(self, tmp_path):
        path = str(tmp_path / "big.csv")
        save_dataset_csv(builtin_dataset()[:2], path)
        with open(path, "a") as fh:
            fh.write("0.12,4.41,4.41,0.03,0.001,"
                     + "x" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(DomainError) as raised:
            load_dataset_csv(path)
        assert str(raised.value) == (
            f"dataset CSV file {path!r}, line 4: field larger than field"
            f" limit ({csv.field_size_limit()})")


class TestAmplitudeCoupling:
    def test_exact_at_knots(self):
        for length, amplitude in AMPLITUDE_BY_LENGTH.items():
            assert amplitude_for_length(length) == amplitude

    def test_interpolates_and_clamps(self):
        mid = amplitude_for_length(0.0825)
        assert 0.004 < mid < 0.006
        assert amplitude_for_length(0.01) == 0.004
        assert amplitude_for_length(0.5) == 0.0075

    def test_nan_length_rejected(self):
        with pytest.raises(ParameterError, match="L: must be a number, got nan"):
            amplitude_for_length(float("nan"))

    def test_decimal_length_rejected(self):
        for length in ("0.08", "0.1125", "0.065", "0.01", "0.5", "NaN"):
            with pytest.raises(ParameterError, match=(
                    "^L: must be a number that mixes with floats, got"
                    f" {re.escape(repr(Decimal(length)))}$")):
                amplitude_for_length(Decimal(length))

    def test_decimal_knots_rejected(self):
        table = {Decimal("0.065"): Decimal("0.004"),
                 Decimal("0.1"): Decimal("0.006")}
        with pytest.raises(ParameterError, match=(
                r"^amplitude table: must be a number that mixes with floats,"
                r" got Decimal\('0\.065'\)$")):
            amplitude_for_length(0.08, table)

    def test_integer_knots_interpolate_as_floats(self):
        table = {0: 1, 2: 3}
        assert [float.hex(amplitude_for_length(L, table))
                for L in (-1, 0, 1, 2, 3)] == [
            float.hex(amplitude_for_length(L, {0.0: 1.0, 2.0: 3.0}))
            for L in (-1.0, 0.0, 1.0, 2.0, 3.0)]

    @pytest.mark.parametrize("table", [5, [(0.065, 0.004)]])
    def test_table_not_a_mapping_rejected(self, table):
        with pytest.raises(ParameterError, match=(
                f"^table: must be a mapping, got {re.escape(repr(table))}$")):
            amplitude_for_length(0.08, table)

    def test_integer_length_beyond_double_range_is_a_numerical_error(self):
        for length in (10**400, -10**400):
            with pytest.raises(NumericalError, match=OVERFLOW):
                amplitude_for_length(length)

    @pytest.mark.parametrize("table, error, message", [
        ({0.065: 0.004, math.nan: 0.006}, ParameterError,
         "^amplitude table: must be finite, got nan$"),
        ({0.065: 0.004, -math.inf: 0.006}, ParameterError,
         "^amplitude table: must be finite, got -inf$"),
        ({0.065: 0.004, 0.1: math.nan}, ParameterError,
         "^amplitude table: must be finite, got nan$"),
        ({0.065: 0.004, 0.1: math.inf}, ParameterError,
         "^amplitude table: must be finite, got inf$"),
        ({0.065: 0.004, 10**400: 0.006}, NumericalError, OVERFLOW)],
        ids=["nan-length", "infinite-length", "nan-amplitude",
             "infinite-amplitude", "integer-beyond-double-range"])
    def test_non_finite_knot_rejected(self, table, error, message):
        for length in (0.05, 0.08, 0.2):
            with pytest.raises(error, match=message):
                amplitude_for_length(length, table)

    def test_fit_with_a_non_finite_knot_is_one_typed_error(self):
        with pytest.raises(ParameterError, match="^amplitude table: must be"
                                                 " finite, got nan$"):
            fit_thrust_scale(symmetric_points(builtin_dataset()),
                             smooth_config(),
                             coupling={0.065: 0.004, math.nan: 0.006})


class TestWithParams:
    def test_values_applied_together(self):
        # A = 6 cm is valid only against the new wavelength
        cfg = smooth_config()
        for values in ({"A": 0.06, "lambda": 0.2}, {"lambda": 0.2, "A": 0.06}):
            point = with_params(cfg, values)
            assert point.flagella == (
                replace(cfg.anterior, A=0.06, lam=0.2),
                replace(cfg.posterior, A=0.06, lam=0.2))

    def test_frequencies(self):
        cfg = default_config()
        point = with_params(cfg, {"f_sym": 2.0, "f2": 3.0, "L": 0.1})
        assert (point.anterior.f, point.posterior.f) == (2.0, 3.0)
        assert point.anterior.L == point.posterior.L == 0.1

    def test_unchanged_flagellum_kept(self):
        cfg = default_config()
        point = with_params(cfg, {"f1": 2.0})
        assert point.posterior is cfg.posterior
        assert point.anterior == replace(cfg.anterior, f=2.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError, match="'lam'"):
            with_params(default_config(), {"lam": 0.2})

    def test_each_rebuilt_flagellum_validated_once(self, monkeypatch):
        cfg = default_config()
        calls = []
        original = FlagellumSpec.__post_init__

        def counted(spec):
            calls.append(spec.role)
            original(spec)

        monkeypatch.setattr(FlagellumSpec, "__post_init__", counted)
        cases = (
            ({"L": 0.1, "A": 0.005, "lambda": 0.08, "f_sym": 2.0},
             ["anterior", "posterior"]),
            ({"f1": 2.0}, ["anterior"]),
            ({"f2": 2.0}, ["posterior"]),
            ({}, []),
        )
        for values, rebuilt in cases:
            calls.clear()
            point = with_params(cfg, values)
            assert calls == rebuilt
            for spec, old in zip(point.flagella, cfg.flagella):
                assert (spec is old) == (spec.role not in rebuilt)

    def test_amplitude_checked_against_new_wavelength(self):
        # A = 3 cm is valid against the old 10 cm wavelength only
        with pytest.raises(ParameterError,
                           match=r"^A: must satisfy 0 <= A < lambda/2$"):
            with_params(smooth_config(), {"A": 0.03, "lambda": 0.06})


def returns_within(seconds, fn, *args, **kwargs):
    """fn(*args, **kwargs), failing the test instead of hanging if fn does
    not return within ``seconds``; a daemon thread runs the call."""
    outcome = {}

    def call():
        try:
            outcome["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # re-raised in the test's thread
            outcome["error"] = exc

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no return within {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestFit:
    def synthetic_points(self, scale):
        base = replace(smooth_config(), thrust_scale=scale)
        out = []
        for p in builtin_dataset()[0:3]:
            u = model_speed(base, p, coupling=AMPLITUDE_BY_LENGTH)
            out.append(replace(p, speed=u))
        return out

    def test_self_consistency_at_unit_scale(self):
        result = fit_thrust_scale(self.synthetic_points(1.0), smooth_config(),
                                  coupling=AMPLITUDE_BY_LENGTH)
        assert result.thrust_scale == pytest.approx(1.0, abs=1e-4)
        assert result.max_rel_error <= 1e-6

    def test_recovers_doubled_scale(self):
        result = fit_thrust_scale(self.synthetic_points(2.0), smooth_config(),
                                  coupling=AMPLITUDE_BY_LENGTH)
        assert result.thrust_scale == pytest.approx(2.0, abs=1e-3)

    def test_round_trip_across_scales(self):
        for scale in (0.5, 1.0, 2.0):
            result = fit_thrust_scale(self.synthetic_points(scale),
                                      smooth_config(),
                                      coupling=AMPLITUDE_BY_LENGTH)
            assert abs(result.thrust_scale - scale) / scale <= 1e-3

    def test_measured_long_flagellum_points(self):
        points = builtin_dataset()
        four = [points[0], points[1], points[2], points[7]]
        result = fit_thrust_scale(four, smooth_config(),
                                  coupling=AMPLITUDE_BY_LENGTH)
        assert result.max_rel_error <= 0.30

    def test_points_that_are_no_iterable(self):
        with pytest.raises(ParameterError,
                           match="^points: must be an iterable, got None$"):
            fit_thrust_scale(None, smooth_config())

    @pytest.mark.parametrize("point", [None, 3, (0.12, 4.41, 4.41, 0.03)])
    def test_a_point_that_is_no_experimental_point(self, point):
        points = [builtin_dataset()[0], point]
        with pytest.raises(ParameterError, match=(
                "^points: must hold ExperimentalPoints, got "
                + re.escape(repr(point)) + "$")):
            fit_thrust_scale(points, smooth_config())
        for call in (point_config, model_speed):
            with pytest.raises(ParameterError, match=(
                    "^point: must be an ExperimentalPoint, got "
                    + re.escape(repr(point)) + "$")):
                call(smooth_config(), point)

    @pytest.mark.parametrize("rel_tol", [0.0, -0.5, -1.0, math.nan,
                                         math.inf, -math.inf, 10**400])
    def test_rel_tol_must_be_finite_and_positive(self, rel_tol):
        # an int beyond double range fails where it converts to a float
        error, message = ((NumericalError, OVERFLOW) if rel_tol == 10**400
                          else (ParameterError,
                                "rel_tol: must be finite and > 0"))
        with pytest.raises(error, match=message):
            returns_within(30.0, fit_thrust_scale, self.synthetic_points(2.0),
                           smooth_config(), coupling=AMPLITUDE_BY_LENGTH,
                           rel_tol=rel_tol)

    @pytest.mark.parametrize("scale", [2.0, 1e-3, 1e3])
    @pytest.mark.parametrize("rel_tol", [1e-300, 5e-324])
    def test_tolerance_below_the_bracket_resolution_returns(self, scale,
                                                            rel_tol):
        points = self.synthetic_points(scale)
        tight = returns_within(30.0, fit_thrust_scale, points, smooth_config(),
                               coupling=AMPLITUDE_BY_LENGTH, rel_tol=rel_tol)
        usual = fit_thrust_scale(points, smooth_config(),
                                 coupling=AMPLITUDE_BY_LENGTH, rel_tol=1e-14)
        assert tight.thrust_scale == pytest.approx(usual.thrust_scale,
                                                   rel=1e-12)

    def test_empty_point_set_rejected(self):
        with pytest.raises(DomainError):
            fit_thrust_scale([], smooth_config())

    def test_speed_zero_at_every_point_rejected(self):
        # straight flagella do not swim at any scale: nothing to fit
        points = builtin_dataset()[0:3]
        with pytest.raises(DomainError,
                           match="model speed is 0 at every point"):
            fit_thrust_scale(points, smooth_config(A=0.0))
        # one still point among moving ones leaves the fit determined
        still = replace(points[0], f1=0.0, f2=0.0, source="still")
        result = fit_thrust_scale(points + [still], smooth_config(),
                                  coupling=AMPLITUDE_BY_LENGTH)
        assert result.residuals[-1] == -1.0

    def test_residuals_reported_per_point(self):
        points = builtin_dataset()[0:3]
        result = fit_thrust_scale(points, smooth_config(),
                                  coupling=AMPLITUDE_BY_LENGTH)
        assert len(result.residuals) == 3
        assert result.max_rel_error == max(abs(r) for r in result.residuals)

    def test_point_config_applies_coupling(self):
        point = builtin_dataset()[4]  # L = 0.065
        cfg = point_config(smooth_config(), point, coupling=AMPLITUDE_BY_LENGTH)
        assert cfg.anterior.L == 0.065
        assert cfg.anterior.A == 0.004
        assert cfg.posterior.A == 0.004


def reference_fit(points, base, coupling, rel_tol):
    """fit_thrust_scale on fresh configs: each point's config is built
    once to check it, as the fit does, then again at every step with that
    step's scale, and solved by solve_velocity."""
    points = list(points)
    for p in points:
        point_config(base, p, coupling)

    def speeds_at(scale):
        return [solve_velocity(replace(point_config(base, p, coupling),
                                       thrust_scale=scale)) for p in points]

    def residuals_of(speeds):
        return [(u - p.speed) / p.speed for u, p in zip(speeds, points)]

    def objective(log_scale):
        return sum(r * r for r in residuals_of(speeds_at(math.exp(log_scale))))

    lo, hi = (math.log(bound) for bound in calibrate.SCALE_BOUNDS)
    log_tol = max(math.log1p(rel_tol), 4.0 * math.ulp(max(-lo, hi)))
    scale = math.exp(calibrate._golden_min(objective, lo, hi, log_tol))
    speeds = speeds_at(scale)
    if not any(speeds):
        raise DomainError("model speed is 0 at every point at the fitted"
                          f" thrust_scale {scale!r}: the fit is undetermined")
    residuals = residuals_of(speeds)
    return CalibrationResult(scale, tuple(residuals),
                             max(abs(r) for r in residuals))


def fit_outcome(fit, *args):
    """float.hex of every number of fit(*args), or its error's class and
    message."""
    try:
        result = fit(*args)
    except BiflagError as exc:
        return type(exc), str(exc)
    return (result.thrust_scale.hex(), [r.hex() for r in result.residuals],
            result.max_rel_error.hex())


@st.composite
def fit_cases(draw):
    """(points, base, coupling, rel_tol) of a fit: 1 to 8 synthetic points,
    some at L = 0, on a random_config base. Some bases have a posterior
    d_membrane 1e-9 relative off, a membrane past the slender-body pole on
    either or both flagella, or a viscosity whose drag overflows at some
    scales; some coupling tables reach past lambda/2."""
    base = random_config(random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    lam = base.anterior.lam
    fault = draw(st.sampled_from([None, None, None, "mismatch", "slender",
                                  "mu"]))
    if fault == "mismatch":
        post = base.posterior
        base = replace(base, posterior=replace(
            post, d_membrane=post.d_membrane * (1.0 + 1e-9)))
    elif fault == "slender":
        # ln(4*lambda/d) <= 2.90 from d = 4*lambda*exp(-2.90) = 0.22*lambda;
        # the flagella's d differ, so that each one's error names its own
        ranges = {"anterior": (0.23, 0.35), "posterior": (0.36, 0.5)}
        roles = draw(st.sampled_from([("anterior",), ("posterior",),
                                      ("anterior", "posterior")]))
        base = replace(base, **{
            role: replace(getattr(base, role),
                          d_membrane=draw(st.floats(*ranges[role])) * lam)
            for role in roles})
    elif fault == "mu":
        base = replace(base, fluid=replace(
            base.fluid, mu=10.0 ** draw(st.floats(300.0, 308.25))))
    coupling = draw(st.sampled_from([None, AMPLITUDE_BY_LENGTH])
                    | st.dictionaries(st.floats(0.01, 0.3),
                                      st.floats(1e-4, 0.6 * lam),
                                      min_size=1, max_size=3))
    # L = 0 on a body of radius 0 puts the speed's denominator at 0
    length = st.just(0.0) | st.floats(0.01, 0.3)
    frequency = st.floats(0.0, 8.0)
    points = []
    for j in range(draw(st.integers(1, 8))):
        f1 = draw(frequency)
        f2 = f1 if draw(st.booleans()) else draw(frequency)
        points.append(ExperimentalPoint(draw(length), f1, f2,
                                        draw(st.floats(1e-5, 0.1)), 0.0,
                                        f"synthetic-{j}"))
    rel_tol = 10.0 ** draw(st.floats(-15.0, -3.0))
    return points, base, coupling, rel_tol


class TestFitWork:
    """A fit keeps each point's numbers and scales one shared drag pair per
    step; no value or error may differ from the fit on fresh configs."""

    @given(fit_cases())
    def test_equals_the_fit_on_fresh_configs(self, case):
        assert fit_outcome(fit_thrust_scale, *case) == fit_outcome(
            reference_fit, *case)

    @pytest.mark.parametrize("twin", [False, True],
                             ids=["one-drag", "two-drags"])
    @pytest.mark.parametrize("coupling", [None, AMPLITUDE_BY_LENGTH])
    def test_two_drag_lookups_per_fit(self, monkeypatch, coupling, twin):
        """No spec or config is built for a point. The drag pair is
        looked up on the first step only, and each step scales it in
        floats, building no CompositeDrag. A posterior
        whose drag is another memo entry, here a d_membrane one ulp off,
        is scaled and checked at every step; one whose drag is the
        anterior's entry is not."""
        points, base = builtin_dataset(), default_config()
        if twin:
            post = base.posterior
            base = replace(base, posterior=replace(
                post, d_membrane=math.nextafter(post.d_membrane, math.inf)))
        fit_thrust_scale(points, base, coupling)  # the drags are now memoised
        built, steps = Counter(), []
        for cls in (FlagellumSpec, RobotConfig, CompositeDrag):
            def counted(obj, original=cls.__post_init__):
                built[type(obj).__name__] += 1
                original(obj)
            monkeypatch.setattr(cls, "__post_init__", counted)
        for name in ("composite_coeffs", "_check_identical", "_shape",
                     "_stage", "_speed"):
            def counted_call(*args, original=getattr(calibrate, name),
                             name=name):
                built[name] += 1
                return original(*args)
            monkeypatch.setattr(calibrate, name, counted_call)
        golden = calibrate._golden_min

        def counted_golden(fn, *args):
            def step(log_scale):
                steps.append(log_scale)
                return fn(log_scale)
            return golden(step, *args)

        monkeypatch.setattr(calibrate, "_golden_min", counted_golden)
        fit_thrust_scale(points, base, coupling)
        n = len(steps) + 1  # and the speeds at the fitted scale
        assert n > 30
        # K_N and gamma checked once per step where the posterior's drag is
        # its own, beta once per point; only the first step shapes each
        # point's anterior, and every step forms the speeds inline from
        # those numbers at its own K_N and gamma, with no _stage or _speed
        assert built == {"composite_coeffs": 2,
                         "_check_identical": n * twin + len(points),
                         "_shape": len(points)}


    #: name: (points as (L, f1, f2), the posterior's wavelength factor of
    #: unequal_wavelengths or None, coupling, the error of the first
    #: failing point); a later point fails with another message, and
    #: within a point the anterior's L, f1 and amplitude come before the
    #: posterior's f2 and amplitude
    FAILING_DATASETS = {
        "negative-L": ([(0.12, 4.41, 4.41), (-0.01, -1.0, 4.41),
                        (0.1, 4.41, -1.0)], None, None,
                       "L: must be >= 0"),
        "negative-f1": ([(0.12, 4.41, 4.41), (0.1, -1.0, -1.0),
                         (-0.01, 4.41, 4.41)], None, None,
                        "f: must be >= 0"),
        "negative-f2": ([(0.06, 4.41, 4.41), (0.1, 4.41, -1.0),
                         (0.19, 4.41, 4.41)], 2.0, {0.05: 0.001, 0.2: 0.09},
                        "f: must be >= 0"),
        "anterior-amplitude": ([(0.06, 4.41, 4.41), (0.19, 4.41, -1.0),
                                (0.1, 4.41, -1.0)], 2.0,
                               {0.05: 0.001, 0.2: 0.09},
                               "A: must satisfy 0 <= A < lambda/2"),
        "posterior-amplitude": ([(0.06, 4.41, 4.41), (0.19, 4.41, 4.41),
                                 (-0.01, 4.41, 4.41)], 0.5,
                                {0.05: 0.001, 0.2: 0.04},
                                "A: must satisfy 0 <= A < lambda/2"),
        "posterior-f2-first": ([(0.06, 4.41, 4.41), (0.19, 4.41, -1.0),
                                (0.18, 4.41, 4.41)], 0.5,
                               {0.05: 0.001, 0.2: 0.04}, "f: must be >= 0"),
    }

    @pytest.mark.parametrize("points, factor, coupling, message",
                             FAILING_DATASETS.values(),
                             ids=FAILING_DATASETS)
    def test_the_first_failing_point_raises_as_its_config(
            self, points, factor, coupling, message):
        """The fit builds no config, yet raises the error that building
        point_config at each point raises first."""
        base = smooth_config()
        if factor is not None:
            base = unequal_wavelengths(base, factor)
        points = [ExperimentalPoint(L, f1, f2, 0.01, 0.0, f"p{j}")
                  for j, (L, f1, f2) in enumerate(points)]
        failures = []
        for p in points:
            try:
                point_config(base, p, coupling)
            except ParameterError as exc:
                failures.append(str(exc))
        assert failures[0] == message and set(failures) != {message}
        outcome = fit_outcome(fit_thrust_scale, points, base, coupling, 1e-6)
        assert outcome == (ParameterError, message)
        assert outcome == fit_outcome(reference_fit, points, base, coupling,
                                      1e-6)


class TestDesignBounds:
    def test_validation(self):
        with pytest.raises(ParameterError):
            DesignBounds({})
        with pytest.raises(ParameterError):
            DesignBounds({"frequency": (0.0, 1.0)})
        with pytest.raises(ParameterError):
            DesignBounds({"f1": (2.0, 1.0)})
        with pytest.raises(ParameterError):
            DesignBounds({"f2": (0.0, 1.0)}, constraint_sum=4.0)
        for interval in ((0, 10**400), (-10**400, 0)):  # beyond double range
            with pytest.raises(NumericalError, match=OVERFLOW):
                DesignBounds({"L": interval})
        for interval in ((1, 2, 3), 5, ("a", 1.0)):  # not a pair of numbers
            with pytest.raises(ParameterError, match=(
                    "^intervals: f1: interval must be finite and ordered$")):
                DesignBounds({"f1": interval})
        for value, got in ((math.nan, "nan"), (math.inf, "inf")):
            with pytest.raises(ParameterError, match=(
                    f"^constraint_sum: must be finite, got {got}$")):
                DesignBounds({"f1": (1.0, 3.0)}, constraint_sum=value)
        with pytest.raises(NumericalError, match=OVERFLOW):
            DesignBounds({"f1": (1.0, 3.0)}, constraint_sum=10**400)
        with pytest.raises(ParameterError, match=(
                "^constraint_sum: must be a number, got 'x'$")):
            DesignBounds({"f1": (1.0, 3.0)}, constraint_sum="x")
        for intervals in ([("f1", (1, 2))], "f1", (("f1", (1, 2)),)):
            with pytest.raises(ParameterError, match=(
                    "^intervals: must be a mapping, got "
                    + re.escape(repr(intervals)) + "$")):
                DesignBounds(intervals)
        for empty in ([], "", (), None):  # empty of any type
            with pytest.raises(ParameterError, match=(
                    "^intervals: must not be empty$")):
                DesignBounds(empty)

    def test_hashable(self):
        # the intervals dict takes no part in the hash, only in equality
        bounds = DesignBounds({"f1": (0.0, 1.0)}, constraint_sum=2.0)
        twin = DesignBounds({"f1": (0, 1)}, constraint_sum=2)
        assert bounds == twin and hash(bounds) == hash(twin)
        assert hash(DesignBounds({"f1": (0.0, 1.0)})) == hash(
            DesignBounds({"f1": (0.0, 1.0)}))
        assert bounds != DesignBounds({"f1": (0.0, 2.0)}, constraint_sum=2.0)


#: (axis, least, most) of the boxes that boxes() draws, on a config with
#: lambda = 0.1: every design in them is valid, as no lambda is below 0.1
#: and no A reaches 0.05
BOX_AXES = (("f1", 0.0, 8.0), ("f2", 0.0, 8.0), ("L", 0.0, 0.3),
            ("A", 0.0, math.nextafter(0.05, 0.0)), ("lambda", 0.1, 0.25))


@st.composite
def boxes(draw):
    """DesignBounds of one or two axes of BOX_AXES, each end drawn within
    its range."""
    axes = draw(st.lists(st.sampled_from(BOX_AXES), min_size=1, max_size=2,
                         unique=True))
    intervals = {}
    for name, least, most in axes:
        ends = draw(st.lists(st.floats(least, most), min_size=2, max_size=2))
        intervals[name] = tuple(sorted(ends))
    return DesignBounds(intervals)


class TestOptimize:
    @settings(max_examples=60)
    @given(bounds=boxes(), objective=st.sampled_from(["speed", "efficiency"]),
           smooth=st.booleans())
    # a grid's last point once rounded to the float above its stop
    @example(bounds=DesignBounds({"L": (0.02237578766349636,
                                        0.05488966060906016)}),
             objective="speed", smooth=True)
    @example(bounds=DesignBounds({"A": (0.001, 0.01)}), objective="speed",
             smooth=True)
    def test_result_stays_in_its_box(self, bounds, objective, smooth):
        cfg = smooth_config() if smooth else default_config()
        result = optimize_design(cfg, bounds, objective)
        for name, value in result.params.items():
            lo, hi = bounds.intervals[name]
            assert lo <= value <= hi, (name, value)

    @settings(max_examples=50)
    @given(lo=st.floats(0.0, math.nextafter(0.05, 0.0)))
    @example(lo=0.00671821220562006)  # once evaluated A = 0.05 and raised
    def test_box_up_to_the_largest_amplitude_returns_a_design(self, lo):
        # lambda is 0.1, so A's largest valid value is the float below 0.05
        hi = math.nextafter(0.05, 0.0)
        result = optimize_design(smooth_config(),
                                 DesignBounds({"A": (lo, hi)}), "speed")
        assert lo <= result.params["A"] <= hi

    def test_speed_monotone_in_frequency(self):
        result = optimize_design(smooth_config(),
                                 DesignBounds({"f1": (0.5, 6.0)}), "speed")
        assert result.params["f1"] == pytest.approx(6.0, abs=1e-9)

    def test_efficiency_constrained_returns_midpoint(self):
        bounds = DesignBounds({"f1": (0.5, 8.32), "f2": (0.5, 8.32)},
                              constraint_sum=8.82)
        result = optimize_design(default_config(), bounds, "efficiency")
        coarse_spacing = (8.32 - 0.5) / 32
        assert abs(result.params["f1"] - 4.41) <= coarse_spacing

    def test_speed_constant_along_constraint(self):
        bounds = DesignBounds({"f1": (1.0, 7.82)}, constraint_sum=8.82)
        cfg = smooth_config()
        result = optimize_design(cfg, bounds, "speed")
        for f1 in (1.0, 4.41, 7.82):
            trial = replace(cfg, anterior=replace(cfg.anterior, f=f1),
                            posterior=replace(cfg.posterior, f=8.82 - f1))
            assert abs(solve_velocity(trial)) == pytest.approx(
                result.value, rel=1e-9)
        assert 1.0 <= result.params["f1"] <= 7.82

    def test_never_worse_than_dense_grid(self):
        cfg = smooth_config()
        result = optimize_design(cfg, DesignBounds({"A": (0.002, 0.012)}),
                                 "speed")
        grid_best = max(
            abs(solve_velocity(replace(
                cfg, anterior=replace(cfg.anterior, A=v),
                posterior=replace(cfg.posterior, A=v))))
            for v in linear_grid(0.002, 0.012, 201))
        assert result.value >= grid_best - 1e-9

    def test_two_axis_efficiency_beats_grid(self):
        cfg = default_config()
        bounds = DesignBounds({"f1": (0.5, 6.0), "f2": (0.5, 6.0)})
        result = optimize_design(cfg, bounds, "efficiency")
        grid_best = max(
            full_solve(replace(cfg, anterior=replace(cfg.anterior, f=f1),
                               posterior=replace(cfg.posterior, f=f2))).eta
            for f1 in linear_grid(0.5, 6.0, 51)
            for f2 in linear_grid(0.5, 6.0, 51))
        assert result.value >= grid_best - 1e-9

    @pytest.mark.parametrize("coarse", [math.nan, math.inf, -math.inf, None,
                                        "x", "33"])
    def test_non_finite_coarse_rejected(self, coarse):
        with pytest.raises(ParameterError,
                           match="coarse: must be a finite number"):
            optimize_design(smooth_config(), DesignBounds({"f1": (0.5, 6.0)}),
                            "speed", coarse=coarse)

    @pytest.mark.parametrize("coarse", [True, False, 33.7, 33.0,
                                        Fraction(33)])
    def test_non_integer_coarse_rejected(self, coarse):
        # as every other count: int() would read a bool as 1 or 0, and no
        # float or Fraction is floored
        with pytest.raises(ParameterError, match=(
                "^coarse: must be an integer, got "
                + re.escape(repr(coarse)) + "$")):
            optimize_design(smooth_config(), DesignBounds({"f1": (0.0, 1.0)}),
                            "speed", coarse=coarse)

    @pytest.mark.parametrize("coarse", [0, -5])
    def test_coarse_below_one_rejected(self, coarse):
        with pytest.raises(ParameterError, match="^coarse: must be >= 1$"):
            optimize_design(smooth_config(), DesignBounds({"f1": (0.0, 1.0)}),
                            "speed", coarse=coarse)

    def test_coarse_below_17_runs_17_points(self, monkeypatch):
        counts = []

        def recorded(lo, hi, count):
            counts.append(count)
            return linear_grid(lo, hi, count)
        monkeypatch.setattr(calibrate, "linear_grid", recorded)
        optimize_design(smooth_config(), DesignBounds({"f1": (0.5, 6.0)}),
                        "speed", coarse=16)
        assert counts == [17]

    def test_invalid_objective(self):
        with pytest.raises(ParameterError):
            optimize_design(smooth_config(), DesignBounds({"f1": (0.0, 1.0)}),
                            "comfort")

    def test_design_values_applied_together(self):
        # every (A, lambda) in the box is valid, but A = 5.5 cm checked
        # against the configuration's own wavelength (10 cm) would not be
        bounds = DesignBounds({"A": (0.055, 0.06), "lambda": (0.15, 0.2)})
        result = optimize_design(smooth_config(), bounds, "speed")
        assert 0.055 <= result.params["A"] <= 0.06
        assert 0.15 <= result.params["lambda"] <= 0.2
        assert result.value > 0

    def test_objective_error_names_parameters(self):
        # lambda driven low enough violates A < lambda/2
        bounds = DesignBounds({"lambda": (0.012, 0.2)})
        with pytest.raises(ParameterError, match="lambda"):
            optimize_design(smooth_config(), bounds, "speed")


def reference_objective(cfg, objective, constraint_sum, axes=()):
    """_objective_fn as defined: with_params, then abs(solve_velocity) or
    full_solve(...).eta on a fresh config at every evaluation."""
    def fn(values):
        point = dict(values)
        if constraint_sum is not None:
            point["f2"] = constraint_sum - point["f1"]
        try:
            design = with_params(cfg, point)
            if objective == "speed":
                return abs(solve_velocity(design))
            return full_solve(design).eta
        except BiflagError as exc:
            raise type(exc)(
                f"objective undefined at {dict(values)!r}: {exc}") from exc
    return fn


def fresh_objective_fn(cfg, objective, constraint_sum, axes):
    """A stand-in for _objective_fn's search: every design of its grids,
    in itertools.product order, through reference_objective on a fresh
    config, keeping the first largest value."""
    fn = reference_objective(cfg, objective, constraint_sum)

    def search(grids):
        best_values, best = None, -math.inf
        for design in itertools.product(*grids):
            values = dict(zip(axes, design))
            v = fn(values)
            if v > best:
                best_values, best = values, v
        return best_values, best
    return search


def one_design(search, axes):
    """The value of ``search`` at one design, through a one-design grid
    whose values are ordered by ``axes``."""
    return lambda values: search([[values[name]] for name in axes])[1]


def outcome(fn, values):
    """float.hex of fn(values), or the class and message of its error."""
    try:
        return float.hex(fn(values))
    except BiflagError as exc:
        return type(exc), str(exc)


def geometry_of(values, cfg):
    """(L, A, lambda) of the design ``values`` on ``cfg``'s anterior."""
    full = {"L": cfg.anterior.L, "A": cfg.anterior.A,
            "lambda": cfg.anterior.lam, **values}
    return full["L"], full["A"], full["lambda"]


def shape_key(values, cfg, spec):
    """What _shape sees of flagellum ``spec`` at the design ``values``:
    (K_N, K_L) of its scaled drag and beta."""
    _, A, lam = geometry_of(values, cfg)
    drag = cfg.effective_drag(replace(spec, A=A, lam=lam))
    return drag.K_N, drag.K_L, A / lam


def stage_key(values, cfg):
    """What _stage sees of the anterior flagellum at the design
    ``values``: its L and _shape."""
    L, A, lam = geometry_of(values, cfg)
    drag = cfg.effective_drag(replace(cfg.anterior, A=A, lam=lam))
    return L, _shape(drag, A / lam, cfg.fluid.mu, cfg.body.a)


def unequal_wavelengths(cfg, factor):
    """``cfg`` with its posterior wavelength, amplitude and diameters
    scaled by ``factor``: the same drag pair and beta, another v_w."""
    post = cfg.posterior
    return replace(cfg, posterior=replace(
        post, lam=post.lam * factor, A=post.A * factor,
        d_membrane=post.d_membrane * factor, d_hinge=post.d_hinge * factor))


SIGNED_ZERO = st.sampled_from([0.0, -0.0])


@st.composite
def design_searches(draw):
    """(cfg, objective, constraint_sum, axes, designs): a search with a
    free frequency whose designs revisit one to three geometries."""
    cfg = random_config(random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    if draw(st.booleans()):
        cfg = unequal_wavelengths(cfg, draw(st.floats(1.5, 3.0)))
    lam = cfg.anterior.lam
    objective = draw(st.sampled_from(["speed", "efficiency"]))
    geometry_axes = draw(st.lists(st.sampled_from(["L", "A", "lambda"]),
                                  unique=True))
    # f2 = constraint_sum - f1 falls below 0 wherever f1 > constraint_sum
    constraint_sum = draw(st.none() | st.floats(0.0, 8.0))
    frequency_axes = (["f1"] if constraint_sum is not None else
                      draw(st.lists(st.sampled_from(["f1", "f2"]),
                                    min_size=1, unique=True)))
    geometry_value = {
        "L": SIGNED_ZERO | st.floats(-0.01, 0.3),
        # up to 0.55 of the base lambda, so A >= lambda/2 against the
        # base lambda or a shorter drawn one
        "A": SIGNED_ZERO | st.floats(0.0, 0.55 * lam),
        "lambda": st.floats(0.5 * lam, 2.0 * lam),
    }
    geometries = draw(st.lists(
        st.fixed_dictionaries({name: geometry_value[name]
                               for name in geometry_axes}),
        min_size=1, max_size=3))
    frequency = SIGNED_ZERO | st.floats(-1.0, 10.0)
    designs = draw(st.lists(
        st.builds(lambda geometry, frequencies: {**geometry, **frequencies},
                  st.sampled_from(geometries),
                  st.fixed_dictionaries({name: frequency
                                         for name in frequency_axes})),
        min_size=1, max_size=12))
    return (cfg, objective, constraint_sum, geometry_axes + frequency_axes,
            designs)


@st.composite
def geometry_searches(draw):
    """(cfg, objective, axes, designs): a search over one to three of L,
    A and lambda with no free frequency. Its designs draw each value from
    a pool of up to three, so that a wavelength recurs with other L and
    A; they include signed zeros, A past lambda/2, and wavelengths short
    enough for a SlenderBodyError or long enough for a NumericalError.
    Some bases have flagella of unequal wavelength, and some flagella
    differ in L or diameter, which raises AsymmetryError."""
    cfg = random_config(random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    if draw(st.booleans()):
        cfg = unequal_wavelengths(cfg, draw(st.floats(1.5, 3.0)))
    change = draw(st.sampled_from([None, "L", "d_membrane"]))
    if change is not None:
        post = cfg.posterior
        cfg = replace(cfg, posterior=replace(
            post, **{change: getattr(post, change) * draw(st.floats(
                1.0, 1.1))}))
    lam = cfg.anterior.lam
    objective = draw(st.sampled_from(["speed", "efficiency"]))
    axes = draw(st.lists(st.sampled_from(["L", "A", "lambda"]), min_size=1,
                         unique=True))
    value = {
        "L": SIGNED_ZERO | st.floats(-0.01, 0.3),
        "A": SIGNED_ZERO | st.floats(0.0, 0.55 * lam),
        "lambda": (st.floats(0.5 * lam, 2.0 * lam)
                   | st.sampled_from([5e-324, 1e-9, 1e300, 1.797e308])),
    }
    pools = {name: draw(st.lists(value[name], min_size=1, max_size=3))
             for name in axes}
    designs = draw(st.lists(
        st.fixed_dictionaries({name: st.sampled_from(pools[name])
                               for name in axes}),
        min_size=1, max_size=12))
    return cfg, objective, axes, designs


class TestObjectiveMemo:
    """A search builds each geometry of its grid's first stage once, from
    numbers, and keeps each flagellum's drag per wavelength; no outcome
    of a one-design grid may differ from building that design's config."""

    @given(design_searches())
    def test_every_outcome_matches_a_fresh_build(self, search):
        cfg, objective, constraint_sum, axes, designs = search
        memo = one_design(calibrate._objective_fn(
            cfg, objective, constraint_sum, axes), axes)
        fresh = reference_objective(cfg, objective, constraint_sum)
        for design in designs:
            values = {name: design[name] for name in axes}
            assert outcome(memo, values) == outcome(fresh, values)

    @given(geometry_searches())
    def test_every_outcome_with_no_free_frequency_matches(self, search):
        cfg, objective, axes, designs = search
        fn = one_design(calibrate._objective_fn(cfg, objective, None, axes),
                        axes)
        fresh = reference_objective(cfg, objective, None)
        for design in designs:
            values = {name: design[name] for name in axes}
            assert outcome(fn, values) == outcome(fresh, values)

    @pytest.mark.parametrize("objective", ["speed", "efficiency"])
    @pytest.mark.parametrize("values, constraint_sum", [
        ({"f1": -1.0, "L": -0.01}, None),
        ({"f2": -1.0, "L": -0.01}, None),
        ({"f1": -1.0, "lambda": 0.0}, None),
        ({"L": -0.01, "lambda": -0.1}, None),
        ({"f1": -1.0, "A": 0.3}, None),
        ({"A": -0.001, "lambda": 0.0}, None),
        ({"f1": 9.0, "L": -0.01}, 8.82),
    ], ids=["L-f1", "L-f2", "lambda-f1", "L-lambda", "f1-A", "lambda-A",
            "L-constrained-f2"])
    def test_first_failing_check_matches_a_fresh_build(self, values,
                                                       constraint_sum,
                                                       objective):
        """A design that fails two checks raises the error of the one
        that building its flagella checks first."""
        axes = [p for p in calibrate.DESIGN_PARAMS if p in values]
        values = {name: values[name] for name in axes}
        search = calibrate._objective_fn(smooth_config(), objective,
                                         constraint_sum, axes)
        fresh = reference_objective(smooth_config(), objective, constraint_sum)
        assert outcome(one_design(search, axes), values) == outcome(fresh,
                                                                    values)

    @pytest.fixture
    def searched(self, monkeypatch):
        """One (stages, shapes, evaluated) per grid handed to a search in
        the searches that follow: the stage_key of each first stage
        computed, the shape_key of each flagellum's _shape, and the
        designs of the grid, each as a dict."""
        searches = []
        stage, shape = calibrate._stage, calibrate._shape
        objective_fn = calibrate._objective_fn

        def counted_stage(shape1, shape2, L1, L2):
            searches[-1][0].append((L1, shape1))
            return stage(shape1, shape2, L1, L2)

        def counted_shape(drag, beta, mu, a):
            searches[-1][1].append((drag.K_N, drag.K_L, beta))
            return shape(drag, beta, mu, a)

        def counted_objective_fn(cfg, objective, constraint_sum, axes):
            search = objective_fn(cfg, objective, constraint_sum, axes)

            def counted(grids):
                searches.append(([], [], [dict(zip(axes, design)) for design
                                          in itertools.product(*grids)]))
                return search(grids)
            return counted

        monkeypatch.setattr(calibrate, "_stage", counted_stage)
        monkeypatch.setattr(calibrate, "_shape", counted_shape)
        monkeypatch.setattr(calibrate, "_objective_fn", counted_objective_fn)
        return searches

    @staticmethod
    def assert_once_per_shape(searches, cfg):
        """Each grid formed one _shape per distinct (A, lambda) of its
        designs, and a second one for the posterior only where the
        flagella differ in a drag input, A or lambda; alike flagella
        share the anterior's."""
        post = replace(cfg.posterior, role=cfg.anterior.role,
                       f=cfg.anterior.f)
        flagella = cfg.flagella[:1] if post == cfg.anterior else cfg.flagella
        for _, shapes, designs in searches:
            geometries = {geometry_of(values, cfg)[1:] for values in designs}
            assert Counter(shapes) == Counter(
                shape_key({"A": A, "lambda": lam}, cfg, spec)
                for A, lam in geometries for spec in flagella)

    @pytest.mark.parametrize("objective", ["speed", "efficiency"])
    @pytest.mark.parametrize("bounds", [
        DesignBounds({"L": (0.06, 0.14), "f1": (1.0, 5.0)}),
        DesignBounds({"A": (0.002, 0.008), "f2": (1.0, 5.0)}),
        DesignBounds({"f1": (1.0, 7.82)}, constraint_sum=8.82),
    ], ids=["L-f1", "A-f2", "f1-constrained"])
    def test_once_per_geometry_with_a_free_frequency(self, searched,
                                                     objective, bounds):
        axes = [p for p in calibrate.DESIGN_PARAMS if p in bounds.intervals]
        cfg = smooth_config()
        search = calibrate._objective_fn(cfg, objective,
                                         bounds.constraint_sum, axes)
        search([linear_grid(*bounds.intervals[name], 33) for name in axes])
        [(stages, _, designs)] = searched
        evaluated = [stage_key(values, cfg) for values in designs]
        assert len(evaluated) > len(set(evaluated))
        assert sorted(stages) == sorted(set(evaluated))
        self.assert_once_per_shape(searched, cfg)

    @pytest.mark.parametrize("objective", ["speed", "efficiency"])
    def test_once_per_evaluation_with_no_free_frequency(self, searched,
                                                        objective):
        cfg = smooth_config()
        bounds = DesignBounds({"L": (0.06, 0.14), "A": (0.002, 0.008)})
        optimize_design(cfg, bounds, objective)
        assert len(searched) > 1
        for stages, _, designs in searched:
            # the order differs: each (A, lambda) is shaped once, then
            # staged at every L
            assert Counter(stages) == Counter(stage_key(values, cfg)
                                              for values in designs)
        self.assert_once_per_shape(searched, cfg)

    @pytest.mark.parametrize("objective", ["speed", "efficiency"])
    def test_a_shape_per_flagellum_where_the_flagella_differ(self, searched,
                                                             objective):
        # a free A would give the two flagella unequal betas
        cfg = unequal_wavelengths(smooth_config(), 2.0)
        optimize_design(cfg, DesignBounds({"L": (0.06, 0.14),
                                           "f1": (1.0, 5.0)}), objective)
        # the two drags are equal in value but two memo entries
        keys = [(cfg.effective_drag(spec).K_N, cfg.effective_drag(spec).K_L,
                 spec.A / spec.lam) for spec in cfg.flagella]
        assert len(searched) > 1
        assert all(shapes == keys for _, shapes, _ in searched)

    @pytest.mark.parametrize("objective", ["speed", "efficiency"])
    def test_unequal_wavelengths_match_the_fresh_optimum(self, monkeypatch,
                                                         objective):
        # the two flagella share their drag pair and beta, but not lambda,
        # so the same frequency gives each its own wave speed
        cfg = unequal_wavelengths(smooth_config(), 2.0)
        bounds = DesignBounds({"L": (0.06, 0.14), "f1": (1.0, 5.0)})
        memo = optimize_design(cfg, bounds, objective)
        monkeypatch.setattr(calibrate, "_objective_fn", fresh_objective_fn)
        assert memo == optimize_design(cfg, bounds, objective)


def reference_search(cfg, bounds, objective, coarse=33):
    """optimize_design on fresh configs: every coarse design in
    itertools.product order, then every refinement step, through
    reference_objective."""
    coarse = max(17, int(coarse))
    total = bounds.constraint_sum
    axes = [p for p in calibrate.DESIGN_PARAMS if p in bounds.intervals]
    if total is not None and "f2" in axes:
        axes.remove("f2")
    intervals = {}
    for name in axes:
        lo, hi = bounds.intervals[name]
        if total is not None and name == "f1" and "f2" in bounds.intervals:
            f2_lo, f2_hi = bounds.intervals["f2"]
            lo, hi = max(lo, total - f2_hi), min(hi, total - f2_lo)
            if lo > hi:
                raise ParameterError(
                    "constraint_sum: empty feasible f1 interval")
        intervals[name] = (lo, hi)
    fn = reference_objective(cfg, objective, total)
    if len(axes) >= 3:
        coarse = 17
    best_values, best = None, -math.inf
    for design in itertools.product(*(
            linear_grid(lo, hi, coarse if hi > lo else 1)
            for lo, hi in intervals.values())):
        values = dict(zip(axes, design))
        v = fn(values)
        if v > best:
            best_values, best = values, v
    spans = {name: hi - lo for name, (lo, hi) in intervals.items()}
    steps = {name: span / (coarse - 1) if span > 0 else 0.0
             for name, span in spans.items()}
    current = dict(best_values)
    while any(steps[name] > 1e-4 * spans[name] for name in axes
              if spans[name] > 0):
        moved = False
        for name in axes:
            if steps[name] == 0.0:
                continue
            lo, hi = intervals[name]
            for cand in (current[name] - steps[name],
                         current[name] + steps[name]):
                cand = min(max(cand, lo), hi)
                if cand == current[name]:
                    continue
                trial = {**current, name: cand}
                v = fn(trial)
                if v > best:
                    current, best, moved = trial, v, True
        if not moved:
            steps = {name: step / 2.0 for name, step in steps.items()}
    return calibrate.OptimizeResult(current, best, objective)


def search_outcome(search, *args):
    """float.hex of the params and value of search(*args), or its error's
    class and message."""
    try:
        result = search(*args)
    except BiflagError as exc:
        return type(exc), str(exc)
    return ([(name, float.hex(value)) for name, value in result.params.items()],
            float.hex(result.value), result.objective)


@st.composite
def coarse_searches(draw):
    """(cfg, bounds, objective, coarse): a search over one to three free
    axes on a random_config base, one in four with flagella of unequal
    wavelength (an AsymmetryError once A or lambda is free). Some
    intervals shrink to a point. One draw in two has one interval cross
    a check mid-grid: L from below 0, A past lambda/2, lambda
    below 2A, or f1 past a constraint_sum, where f2 falls below 0."""
    cfg = random_config(random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    if draw(st.integers(0, 3)) == 0:
        cfg = unequal_wavelengths(cfg, draw(st.floats(1.5, 3.0)))
    lam, A = cfg.anterior.lam, cfg.anterior.A
    ends = {"f1": st.floats(0.0, 8.0), "f2": st.floats(0.0, 8.0),
            "L": st.floats(-0.02, 0.3), "A": st.floats(0.0, 0.6 * lam),
            "lambda": st.floats(0.5 * lam, 2.0 * lam)}
    crossing = {"L": (st.floats(-0.02, -1e-6), st.floats(0.0, 0.3)),
                "A": (st.floats(0.0, 0.45 * lam), st.floats(0.5 * lam,
                                                          0.6 * lam)),
                "lambda": (st.floats(A, 2.0 * A), st.floats(2.0 * A,
                                                            2.0 * lam)),
                "f1": (st.floats(0.0, 4.0), st.floats(4.0, 8.0))}
    crosses = draw(st.sampled_from([None] * 4 + [*crossing]))
    # three axes make 17**3 designs, slow on fresh configs: one draw in six
    n_axes = draw(st.sampled_from([1, 1, 2, 2, 2, 3]))
    axes = draw(st.lists(st.sampled_from(calibrate.DESIGN_PARAMS),
                         min_size=n_axes, max_size=n_axes, unique=True))
    if crosses is not None and crosses not in axes:
        axes[-1] = crosses
    intervals = {}
    for name in axes:
        if name == crosses:
            intervals[name] = tuple(draw(end) for end in crossing[name])
        else:
            lo = draw(ends[name])
            intervals[name] = (lo, lo) if draw(st.integers(0, 5)) == 0 else (
                tuple(sorted((lo, draw(ends[name])))))
    constraint_sum = None
    if crosses == "f1":
        # f2 = constraint_sum - f1 falls below 0 wherever f1 > constraint_sum
        constraint_sum = draw(st.floats(*intervals["f1"]))
    elif "f1" in axes and draw(st.booleans()):
        constraint_sum = draw(st.floats(0.0, 8.0))
    objective = draw(st.sampled_from(["speed", "efficiency"]))
    coarse = draw(st.sampled_from([17, 18, 33]))
    return cfg, DesignBounds(intervals, constraint_sum), objective, coarse


#: the design axis of each field of MISMATCHES that is one
MISMATCH_AXES = {"A": "A", "L": "L", "lam": "lambda"}


@st.composite
def mismatched_searches(draw):
    """(cfg, bounds, objective, coarse): a search over one to three free
    axes on a random_config base whose posterior differs by 1e-9 relative
    in one field that the identical-flagella check sees, so that each
    check of its grid fails or passes for every value of an axis; where
    that field is a design axis, the axis is free in one draw in two and
    the mismatch is then gone."""
    cfg = random_config(random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    name = draw(st.sampled_from(MISMATCHES))
    cfg = mismatched(cfg, name, 1e-9)
    lam, A = cfg.anterior.lam, cfg.anterior.A
    ends = {"f1": st.floats(0.0, 8.0), "f2": st.floats(0.0, 8.0),
            "L": st.floats(0.0, 0.3), "A": st.floats(0.0, 0.45 * lam),
            "lambda": st.floats(max(2.2 * A, 0.5 * lam), 2.0 * lam)}
    n_axes = draw(st.sampled_from([1, 1, 2, 2, 2, 3]))
    axes = draw(st.lists(st.sampled_from(calibrate.DESIGN_PARAMS),
                         min_size=n_axes, max_size=n_axes, unique=True))
    axis = MISMATCH_AXES.get(name)
    if axis is not None:
        if draw(st.booleans()):
            axes = [axis] + [a for a in axes if a != axis][:n_axes - 1]
        elif axis in axes:
            axes.remove(axis)
            if not axes:
                axes = ["f1"]
    intervals = {free: tuple(sorted((draw(ends[free]), draw(ends[free]))))
                 for free in axes}
    objective = draw(st.sampled_from(["speed", "efficiency"]))
    return cfg, DesignBounds(intervals), objective, draw(
        st.sampled_from([17, 18, 33]))


@st.composite
def tied_searches(draw):
    """(cfg, bounds, objective, coarse): a search over one to three of L,
    A and lambda on a random_config base that does not beat, f1 = f2 = 0,
    so that U and eta are 0 at every design and every design ties. One
    draw in two has one interval cross a check mid-grid."""
    cfg = random_config(random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    cfg = with_params(cfg, {"f1": 0.0, "f2": 0.0})
    lam, A = cfg.anterior.lam, cfg.anterior.A
    ends = {"L": (st.floats(0.0, 0.3), st.floats(-0.02, 0.3)),
            "A": (st.floats(0.0, 0.45 * lam), st.floats(0.0, 0.6 * lam)),
            "lambda": (st.floats(2.2 * A + 1e-6, 2.0 * lam),
                       st.floats(A, 2.0 * lam))}
    axes = draw(st.lists(st.sampled_from(["L", "A", "lambda"]), min_size=1,
                         max_size=3, unique=True))
    crossing = draw(st.booleans())
    intervals = {name: tuple(sorted((draw(ends[name][0]),
                                     draw(ends[name][crossing]))))
                 for name in axes}
    objective = draw(st.sampled_from(["speed", "efficiency"]))
    return cfg, DesignBounds(intervals), objective, draw(
        st.sampled_from([17, 18, 33]))


#: the faults of faulting_searches
EVALUATION_FAULTS = ("mass", "sum", "U", "corner", "gamma")


@st.composite
def faulting_searches(draw):
    """(cfg, bounds, objective, coarse): a search on a random_config base
    whose designs fault as they are evaluated, not at a check. Its base
    has a body mass of 5e-324, where m*g*|U| underflows to 0 (CoT); or a
    thrust_scale up to 1e300 and frequency ends from about where the field
    sum of full_solve passes the largest float (power_top) to where the
    sum, a power or a wave speed's square overflows; or a thrust_scale
    from 1e10 and frequencies up to 1e300 or more, where U overflows; or
    a = 0 with L = 0 among the grid values; or gamma = 1, where U is 0 at
    every design."""
    cfg = random_config(random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    fault = draw(st.sampled_from(EVALUATION_FAULTS))
    frequency = st.floats(0.0, 8.0)
    intervals = {"f1": tuple(sorted((draw(frequency), draw(frequency))))}
    if fault == "mass":
        cfg = replace(cfg, body=replace(cfg.body, mass=5e-324))
    elif fault == "sum":
        cfg = replace(cfg, thrust_scale=10.0 ** draw(st.floats(0.0, 300.0)))
        top = power_top(cfg)
        ends = tuple(min(1e308, top * factor) for factor in (
            draw(st.floats(0.5, 1.0)),
            draw(st.sampled_from([1.25, 1.5, 10.0]))))
        intervals = {"f1": ends, "f2": ends}
    elif fault == "U":
        cfg = replace(cfg, thrust_scale=10.0 ** draw(st.floats(10.0, 300.0)))
        intervals["f1"] = (intervals["f1"][0],
                           10.0 ** draw(st.floats(300.0, 308.0)))
    elif fault == "corner":
        cfg = replace(cfg, body=replace(cfg.body, a=0.0))
        intervals["L"] = (0.0, draw(st.floats(0.0, 0.3)))
    else:
        # a hinge of the membrane's diameter with n*h = 1 adds each of the
        # membrane's coefficients to the other, so K_L = K_N
        cfg = replace(cfg, **{role: replace(
            getattr(cfg, role), d_hinge=getattr(cfg, role).d_membrane,
            h=2.0 ** -6, n=64.0) for role in ("anterior", "posterior")})
    objective = draw(st.sampled_from(["speed", "efficiency"]))
    return cfg, DesignBounds(intervals), objective, 17


@st.composite
def edge_searches(draw):
    """(cfg, bounds, objective, coarse): an efficiency search on a
    random_config base whose passes lie on both sides of the 1e30 limits
    of a pass's bound (sweep._bounded on the envelope of the pass's
    shapes). Its thrust_scale is log-uniform over 1e-30 to 1e300, and one
    base in three has mu within a factor of 2 of 1e-30 or log-uniform
    over 1e-300 to 1e-30.
    Then either L's interval or f1's ends between 1e29 and 1e31, with
    lambda free in the f1 case, so that one pass holds wave speeds on
    both sides of 1e30; or a = 0 with an L interval from 0, where the
    speed's least denominator is 0 while its numerator is not."""
    cfg = random_config(random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    cfg = replace(cfg, thrust_scale=10.0 ** draw(st.floats(-30.0, 300.0)))
    if draw(st.integers(0, 2)) == 0:
        # where mu is far below 1e-30, Re overflows before any other field
        mu = draw(st.floats(-1.0, 1.0).map(lambda x: 1e-30 * 2.0 ** x)
                  | st.floats(-300.0, -30.0).map(lambda x: 10.0 ** x))
        cfg = replace(cfg, fluid=replace(cfg.fluid, mu=mu))
    frequency = st.floats(0.0, 8.0)
    intervals = {"f1": tuple(sorted((draw(frequency), draw(frequency))))}
    top = 10.0 ** draw(st.floats(29.0, 31.0))
    edge = draw(st.sampled_from(["L", "f1", "corner"]))
    if edge == "L":
        intervals["L"] = (draw(st.floats(0.0, 0.3)), top)
    elif edge == "f1":
        # A stays below lambda/2 and the slender-body log above its pole
        lam = cfg.anterior.lam
        intervals["f1"] = (intervals["f1"][0], top)
        intervals["lambda"] = tuple(sorted((draw(st.floats(0.5 * lam,
                                                           2.0 * lam)),
                                            draw(st.floats(0.5 * lam,
                                                           2.0 * lam)))))
    else:
        cfg = replace(cfg, body=replace(cfg.body, a=0.0))
        intervals["L"] = (0.0, draw(st.floats(0.0, 0.3)))
    return cfg, DesignBounds(intervals), "efficiency", 17


@st.composite
def envelope_passes(draw):
    """(cfg, grids): one efficiency pass over all five design axes, in
    DESIGN_PARAMS order, of one to three values each, on a random_config
    base of mass 1 kg, so that CoT's m*g*|U| cannot underflow. Its
    thrust_scale is log-uniform over 1e-30 to 1e300; one base in three
    has mu log-uniform over 1e-300 to 1e-29, one in four a = 0 and one in
    four gamma = 1. L and
    each frequency reach up to a top log-uniform over 1e-2 to 1e31, and
    each A stays below half of the least lambda."""
    cfg = random_config(random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    cfg = replace(cfg, thrust_scale=10.0 ** draw(st.floats(-30.0, 300.0)),
                  body=replace(cfg.body, mass=1.0))
    if draw(st.integers(0, 2)) == 0:
        cfg = replace(cfg, fluid=replace(
            cfg.fluid, mu=10.0 ** draw(st.floats(-300.0, -29.0))))
    if draw(st.integers(0, 3)) == 0:
        cfg = replace(cfg, body=replace(cfg.body, a=0.0))
    if draw(st.integers(0, 3)) == 0:
        # gamma = 1 (as in faulting_searches): U is 0, and only K_N*L_max
        # bounds the powers
        cfg = replace(cfg, **{role: replace(
            getattr(cfg, role), d_hinge=getattr(cfg, role).d_membrane,
            h=2.0 ** -6, n=64.0) for role in ("anterior", "posterior")})

    def values(lo, hi):
        return draw(st.lists(st.floats(lo, hi), min_size=1, max_size=3))

    def top():
        return 10.0 ** draw(st.floats(-2.0, 31.0))

    lam = cfg.anterior.lam
    lams = values(0.5 * lam, 2.0 * lam)
    return cfg, [values(0.0, top()), values(0.0, top()), values(0.0, top()),
                 values(0.0, 0.49 * min(lams)), lams]


class TestCoarsePass:
    """optimize_design's coarse grid and each refinement step run through
    one search, which checks each axis value once and runs its grid
    design by design only where a check or evaluation fails; no outcome
    may differ from a search that evaluates every design on a fresh
    config."""

    @settings(max_examples=200)
    @given(coarse_searches())
    def test_equals_the_search_on_fresh_configs(self, search):
        assert search_outcome(optimize_design, *search) == search_outcome(
            reference_search, *search)

    @given(faulting_searches())
    def test_designs_that_fault_equal_the_search_on_fresh_configs(self,
                                                                  search):
        assert search_outcome(optimize_design, *search) == search_outcome(
            reference_search, *search)

    @pytest.mark.parametrize("preset", [default_config, smooth_config])
    def test_a_field_sum_that_overflows_is_evaluated_again(self, monkeypatch,
                                                           preset):
        """Where the field sum of full_solve overflows while each field is
        finite, the coarse pass evaluates the design again and goes on: the
        search then returns the search on fresh configs."""
        cfg = replace(preset(), thrust_scale=1e300)
        top = power_top(cfg)
        bounds = DesignBounds({"f1": (0.8 * top, 1.25 * top),
                               "f2": (0.8 * top, 1.25 * top)})
        finite_sums = []  # of each design evaluated again
        point = calibrate._point

        def counted(body, U, wave1, wave2):
            fields = point(body, U, wave1, wave2)
            F1, F2, F_body, residual, P1, P2, _, eta, _, re = fields[1:]
            finite_sums.append(math.isfinite(
                F1 + F2 + F_body + residual + P1 + P2 + eta + re))
            assert all(map(math.isfinite, fields[:9] + fields[10:]))
            return fields

        monkeypatch.setattr(calibrate, "_point", counted)
        outcome = search_outcome(optimize_design, cfg, bounds, "efficiency")
        assert finite_sums and not any(finite_sums)
        assert outcome == search_outcome(reference_search, cfg, bounds,
                                         "efficiency")
        assert not isinstance(outcome[0], type)

    @pytest.mark.parametrize("top", [1.3e155, 1.4e155],
                             ids=["squares-finite", "squares-overflow"])
    def test_wave_speeds_past_1e154_equal_the_search_on_fresh_configs(self,
                                                                      top):
        """From a wave speed of 1e154 the efficiency search forms no square
        of it ahead of U, and evaluates each such design again: it gives the
        value of a fresh config while the square is finite (to about
        1.34e154), and raises its error past that."""
        cfg = smooth_config(A=1e-6)  # beta = 1e-5: U and P stay finite
        bounds = DesignBounds({"f1": (1e155, top), "f2": (1e155, top)})
        outcome = search_outcome(optimize_design, cfg, bounds, "efficiency")
        assert outcome == search_outcome(reference_search, cfg, bounds,
                                         "efficiency")
        assert isinstance(outcome[0], type) == (top > 1.35e155)

    # Re alone overflows: mu is below 1e-30 and every other field is finite
    @example((replace(smooth_config(), fluid=replace(smooth_config().fluid,
                                                     mu=1e-300)),
              DesignBounds({"f1": (0.0, 1e20)}), "efficiency", 17))
    @given(edge_searches())
    def test_at_the_bounds_edge_equals_the_search_on_fresh_configs(self,
                                                                   search):
        """Where a pass's bound holds, no design of the pass is evaluated
        again but to raise its error: its field sum cannot overflow."""
        bounded, kept = [False], []
        check, point = calibrate._bounded, calibrate._point

        def recorded_check(*args):
            bounded[0] = check(*args)
            return bounded[0]

        def recorded_point(*args):
            fields = point(*args)
            kept.append(bounded[0])
            return fields

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(calibrate, "_bounded", recorded_check)
            patch.setattr(calibrate, "_point", recorded_point)
            outcome = search_outcome(optimize_design, *search)
        assert not any(kept)
        assert outcome == search_outcome(reference_search, *search)

    # gamma = 1, so U = 0: K_N*L is at most 1e30 only at L = 0, and the
    # power of the design at L = 1 overflows
    @example((replace(default_config(h=0.02, n=50.0), thrust_scale=1e280),
              [[1e29], [1e29], [0.0, 1.0], [0.04], [0.1]]))
    @settings(max_examples=200)
    @given(envelope_passes())
    def test_a_bounded_pass_keeps_each_field_sum_finite(self, case):
        """Wherever the envelope of a pass is bounded, each design's
        finiteness sum of _fields is finite wherever its eta is: a design
        fails only at a non-finite eta or at P0 with zero flagellar
        power, so forming no thrusts loses no error."""
        cfg, grids = case
        verdicts, check = [], calibrate._bounded

        def recorded(*args):
            verdicts.append(check(*args))
            return verdicts[-1]

        search = calibrate._objective_fn(cfg, "efficiency", None,
                                         calibrate.DESIGN_PARAMS)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(calibrate, "_bounded", recorded)
            try:
                search(grids)
            except BiflagError:  # a drag that overflows raises before it
                pass
        if not verdicts or not verdicts[0]:
            return
        for design in itertools.product(*grids):
            try:
                r = full_solve(with_params(cfg, dict(zip(
                    calibrate.DESIGN_PARAMS, design))))
            except InconsistencyError:
                continue
            except NumericalError as exc:
                assert str(exc).startswith("non-finite eta"), str(exc)
                continue
            assert math.isfinite(r.F1 + r.F2 + r.F_body + r.residual + r.P1
                                 + r.P2 + r.eta + r.Re)

    @given(mismatched_searches())
    def test_a_mismatched_base_equals_the_search_on_fresh_configs(self,
                                                                  search):
        assert search_outcome(optimize_design, *search) == search_outcome(
            reference_search, *search)

    @pytest.mark.parametrize("objective", ["speed", "efficiency"])
    @pytest.mark.parametrize("name", MISMATCHES)
    def test_a_base_within_the_check_equals_the_search_on_fresh_configs(
            self, name, objective):
        """A posterior 1e-13 relative off in a field that the
        identical-flagella check sees passes that check, yet keeps its own
        drag, or its own amplitude and shape."""
        cfg = mismatched(smooth_config(), name, 1e-13)
        bounds = DesignBounds({"lambda": (0.08, 0.12), "f1": (1.0, 5.0)})
        assert search_outcome(optimize_design, cfg, bounds,
                              objective) == search_outcome(
            reference_search, cfg, bounds, objective)

    @pytest.mark.parametrize("objective", ["speed", "efficiency"])
    def test_a_posterior_amplitude_past_half_a_wavelength(self, objective):
        """The posterior's amplitude is checked where it is not the
        anterior's: at lambda = 2*A2, one ulp above the anterior's A, only
        the posterior's fails."""
        cfg = smooth_config()
        A2 = math.nextafter(cfg.anterior.A, math.inf)
        cfg = replace(cfg, posterior=replace(cfg.posterior, A=A2))
        bounds = DesignBounds({"lambda": (2.0 * A2, 0.1)})
        outcome = search_outcome(optimize_design, cfg, bounds, objective)
        assert outcome == search_outcome(reference_search, cfg, bounds,
                                         objective)
        assert outcome == (ParameterError, (
            f"objective undefined at {{'lambda': {2.0 * A2!r}}}:"
            " A: must satisfy 0 <= A < lambda/2"))

    # a -0.0 start is the first design, its sign kept
    @example((with_params(smooth_config(), {"f1": 0.0, "f2": 0.0}),
              DesignBounds({"L": (-0.0, 0.25)}), "speed", 17))
    @given(tied_searches())
    def test_every_design_tied_equals_the_search_on_fresh_configs(self,
                                                                  search):
        outcome = search_outcome(optimize_design, *search)
        assert outcome == search_outcome(reference_search, *search)
        if not isinstance(outcome[0], type):  # the first design wins
            cfg, bounds, *_ = search
            assert outcome[1] == float.hex(0.0)
            assert dict(outcome[0]) == {name: float.hex(lo) for name, (lo, _)
                                        in bounds.intervals.items()}

    @pytest.mark.parametrize("intervals, coarse, bound", [
        ({"f1": (0.5, 6.0)}, 2 ** 20 + 1, 2 ** 20),
        ({"L": (0.06, 0.14), "f1": (1.0, 5.0)}, 2 ** 10 + 1, 2 ** 10),
        ({"f1": (0.5, 6.0), "L": (0.1, 0.1)}, 2 ** 20 + 1, 2 ** 20)])
    def test_coarse_grid_bounded(self, intervals, coarse, bound):
        with pytest.raises(ParameterError,
                           match=f"^coarse: must be <= {bound}$"):
            returns_within(30.0, optimize_design, smooth_config(),
                           DesignBounds(intervals), "speed", coarse=coarse)

    def test_a_failing_grid_descends_one_axis_at_a_time(self, monkeypatch):
        """A failing grid runs each value of its outer axis as a pass with
        every inner value, and descends only into the first pass that
        raises: here f2 = 8.82 - f1 falls below 0 from the 63rd of 64 f1
        values on, so the first failing design is that value's first L."""
        passes, in_double_range = [], calibrate._in_double_range

        def counted(grid_pass):
            checked = in_double_range(grid_pass)

            def recorded(grids):
                passes.append([len(values) for values in grids])
                return checked(grids)
            return recorded

        monkeypatch.setattr(calibrate, "_in_double_range", counted)
        bounds = DesignBounds({"f1": (0.0, 9.0), "L": (0.05, 0.2)},
                              constraint_sum=8.82)
        outcome = search_outcome(optimize_design, smooth_config(), bounds,
                                 "speed", 64)
        assert outcome == search_outcome(reference_search, smooth_config(),
                                         bounds, "speed", 64)
        assert outcome[1].startswith("objective undefined at {'f1': 8.857")
        assert passes == [[64, 64]] + [[1, 64]] * 63 + [[1, 1]]

    @pytest.mark.parametrize("objective", ["speed", "efficiency"])
    def test_a_search_leaves_no_garbage_cycle(self, objective):
        # a cycle would keep each search's state until the cyclic
        # collector runs, which a run of many searches pays for
        bounds = DesignBounds({"L": (0.06, 0.14), "f1": (1.0, 5.0)})
        gc.collect()
        gc.disable()
        try:
            optimize_design(smooth_config(), bounds, objective)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_point_interval_is_one_grid_value(self):
        # 2000 designs: past 2**10 per axis, but L holds one value
        bounds = DesignBounds({"f1": (1.0, 5.0), "L": (0.1, 0.1)})
        assert search_outcome(optimize_design, smooth_config(), bounds,
                              "speed", 2000) == search_outcome(
            reference_search, smooth_config(), bounds, "speed", 2000)

    @pytest.mark.parametrize("objective", ["speed", "efficiency"])
    @pytest.mark.parametrize("bounds, designs", [
        (DesignBounds({"L": (0.06, 0.14), "f1": (1.0, 5.0)}), 33 ** 2),
        (DesignBounds({"A": (0.002, 0.008), "f2": (1.0, 5.0)}), 33 ** 2),
        (DesignBounds({"f1": (1.0, 7.82)}, constraint_sum=8.82), 33),
        (DesignBounds({"L": (0.06, 0.14), "A": (0.002, 0.008)}), 33 ** 2),
    ], ids=["L-f1", "A-f2", "f1-constrained", "L-A"])
    def test_a_valid_search_does_not_fall_back(self, monkeypatch, objective,
                                               bounds, designs):
        """Every grid, the coarse one and each refinement step's, is the
        one a search on fresh configs is handed, and its geometries' first
        stages are formed once each: none is run again design by design,
        and no design is evaluated again by _speed, _wave, _point or
        _fields."""
        calls = Counter()
        for module, name in ((calibrate, "_check_identical"),
                             (calibrate, "_shape"), (calibrate, "_stage"),
                             (calibrate, "_speed"), (calibrate, "_wave"),
                             (calibrate, "_point"), (closed_form, "_fields")):
            def counted(*args, original=getattr(module, name), name=name):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(module, name, counted)

        def recording(objective_fn, grids):
            def recorded_objective_fn(cfg, objective, constraint_sum, axes):
                search = objective_fn(cfg, objective, constraint_sum, axes)

                def recorded(grid):
                    grids.append(dict(zip(axes, grid)))
                    return search(grid)
                return recorded
            return recorded_objective_fn

        one_pass_grids, fresh_grids = [], []
        monkeypatch.setattr(calibrate, "_objective_fn", recording(
            calibrate._objective_fn, one_pass_grids))
        one_pass = optimize_design(smooth_config(), bounds, objective)
        one_pass_calls = Counter(calls)  # before the fresh configs' solves
        monkeypatch.setattr(calibrate, "_objective_fn", recording(
            fresh_objective_fn, fresh_grids))
        assert optimize_design(smooth_config(), bounds, objective) == one_pass
        assert one_pass_grids == fresh_grids
        assert math.prod(map(len, one_pass_grids[0].values())) == designs
        assert len(one_pass_grids) > 1
        L, A, lam = (
            [len(grid.get(name, [None])) for grid in one_pass_grids]
            for name in ("L", "A", "lambda"))
        # a stage per geometry and one shape per (A, lambda), which both
        # flagella share; an identical-flagella check per L only, as the
        # posterior's drag is the anterior's memo entry (no K_N or gamma
        # check) and its A and lambda are the anterior's (no beta check)
        assert one_pass_calls == {
            "_stage": sum(map(math.prod, zip(L, A, lam))),
            "_shape": sum(map(math.prod, zip(A, lam))),
            "_check_identical": sum(L)}


class TestGeometrySearch:
    """A search with no free frequency builds no spec or config, and
    each flagellum's scaled drag once per wavelength."""

    BOUNDS = DesignBounds({"L": (0.06, 0.14), "A": (0.002, 0.008),
                           "lambda": (0.08, 0.12)})

    @pytest.fixture
    def drags(self, monkeypatch):
        """The distinct arguments of the _composite_coeffs calls of a
        search, and a count of the drags computed: the memo's misses."""
        calls = set()
        coeffs = calibrate._composite_coeffs

        def counted(*args):
            calls.add(args)
            return coeffs(*args)

        monkeypatch.setattr(calibrate, "_composite_coeffs", counted)
        coeffs.cache_clear()
        return calls, lambda: coeffs.cache_info().misses

    @pytest.mark.parametrize("objective", ["speed", "efficiency"])
    def test_no_spec_or_config_per_evaluation(self, monkeypatch, objective):
        cfg, built = smooth_config(), []
        for cls in (FlagellumSpec, RobotConfig):
            def counted(obj, original=cls.__post_init__):
                built.append(type(obj).__name__)
                original(obj)
            monkeypatch.setattr(cls, "__post_init__", counted)
        optimize_design(cfg, self.BOUNDS, objective)
        assert built == []

    @pytest.mark.parametrize("objective", ["speed", "efficiency"])
    def test_drag_once_per_wavelength(self, monkeypatch, drags, objective):
        wavelengths = []
        objective_fn = calibrate._objective_fn

        def counted_objective_fn(cfg, objective, constraint_sum, axes):
            search = objective_fn(cfg, objective, constraint_sum, axes)

            def counted(grids):
                wavelengths.extend(dict(zip(axes, design))["lambda"]
                                   for design in itertools.product(*grids))
                return search(grids)
            return counted

        monkeypatch.setattr(calibrate, "_objective_fn", counted_objective_fn)
        cfg = smooth_config()
        optimize_design(cfg, self.BOUNDS, objective)
        # the two flagella are alike, so both share one drag per wavelength
        calls, misses = drags
        spec = cfg.anterior
        assert len(wavelengths) > 2 * len(set(wavelengths))
        assert calls == {
            (cfg.fluid.mu, lam, spec.d_membrane, spec.d_hinge, spec.w,
             spec.h, spec.n, cfg.thrust_scale) for lam in set(wavelengths)}
        assert misses() == len(calls)

    @pytest.mark.parametrize("objective", ["speed", "efficiency"])
    def test_unequal_wavelengths_once_per_flagellum(self, drags, objective):
        cfg = unequal_wavelengths(smooth_config(), 2.0)
        optimize_design(cfg, DesignBounds({"L": (0.06, 0.14)}), objective)
        calls, misses = drags
        assert calls == {
            (cfg.fluid.mu, spec.lam, spec.d_membrane, spec.d_hinge, spec.w,
             spec.h, spec.n, cfg.thrust_scale) for spec in cfg.flagella}
        assert misses() == 2
