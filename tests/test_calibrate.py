import math
import threading
from dataclasses import replace

import pytest

from biflag.calibrate import (
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
from biflag.closed_form import full_solve, solve_velocity
from biflag.core import FlagellumSpec
from biflag.errors import DomainError, ParameterError
from biflag.presets import (
    AMPLITUDE_BY_LENGTH,
    amplitude_for_length,
    default_config,
    smooth_config,
    with_params,
)
from biflag.sweep import linear_grid


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
        with pytest.raises(DomainError):
            load_dataset_csv(path)

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

    @pytest.mark.parametrize("rel_tol", [0.0, -0.5, -1.0, math.nan,
                                         math.inf, -math.inf])
    def test_rel_tol_must_be_finite_and_positive(self, rel_tol):
        with pytest.raises(ParameterError,
                           match="rel_tol: must be finite and > 0"):
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


class TestOptimize:
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

    @pytest.mark.parametrize("coarse", [math.nan, math.inf, -math.inf])
    def test_non_finite_coarse_rejected(self, coarse):
        with pytest.raises(ParameterError,
                           match="coarse: must be a finite number"):
            optimize_design(smooth_config(), DesignBounds({"f1": (0.5, 6.0)}),
                            "speed", coarse=coarse)

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
